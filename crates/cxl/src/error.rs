//! Error type for the CXL model.

use std::fmt;

/// Errors produced by the CXL device model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CxlError {
    /// A host physical address did not match any HDM decoder range.
    AddressNotMapped(u64),
    /// An access crossed the end of the device's backing memory.
    OutOfBounds {
        /// Device-local address of the access.
        dpa: u64,
        /// Length of the access in bytes.
        len: usize,
        /// Size of the device memory.
        capacity: u64,
    },
    /// An HDM decoder was configured with an invalid range.
    InvalidHdmRange(String),
    /// A switch port id was unknown.
    UnknownPort(usize),
    /// A switch port is already bound to another host.
    PortAlreadyBound(usize),
    /// Pooling: not enough unassigned capacity to satisfy an allocation.
    InsufficientCapacity {
        /// Requested bytes.
        requested: u64,
        /// Bytes still unassigned.
        available: u64,
    },
    /// A shared region was accessed by a host that has not attached it.
    NotAttached {
        /// Host id.
        host: usize,
    },
    /// Pooling: the allocation id is not (or no longer) live on this switch.
    UnknownAllocation(u64),
}

impl fmt::Display for CxlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CxlError::AddressNotMapped(hpa) => {
                write!(
                    f,
                    "host physical address {hpa:#x} is not mapped by any HDM decoder"
                )
            }
            CxlError::OutOfBounds { dpa, len, capacity } => write!(
                f,
                "access of {len} bytes at device address {dpa:#x} exceeds capacity {capacity:#x}"
            ),
            CxlError::InvalidHdmRange(msg) => write!(f, "invalid HDM range: {msg}"),
            CxlError::UnknownPort(p) => write!(f, "unknown switch port {p}"),
            CxlError::PortAlreadyBound(p) => write!(f, "switch port {p} already bound"),
            CxlError::InsufficientCapacity {
                requested,
                available,
            } => write!(
                f,
                "pool cannot satisfy {requested} bytes, only {available} unassigned"
            ),
            CxlError::NotAttached { host } => {
                write!(f, "host {host} has not attached the shared region")
            }
            CxlError::UnknownAllocation(id) => {
                write!(f, "pool allocation {id} is not live on this switch")
            }
        }
    }
}

impl std::error::Error for CxlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_contain_addresses_in_hex() {
        let e = CxlError::AddressNotMapped(0x1000);
        assert!(e.to_string().contains("0x1000"));
        let e = CxlError::OutOfBounds {
            dpa: 0x20,
            len: 64,
            capacity: 0x40,
        };
        assert!(e.to_string().contains("0x20"));
    }
}
