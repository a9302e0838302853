//! Error type for the CXL model.

use std::fmt;

/// Errors produced by the CXL device model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CxlError {
    /// An access crossed the end of the device's backing memory.
    OutOfBounds {
        /// Device-local address of the access.
        dpa: u64,
        /// Length of the access in bytes.
        len: usize,
        /// Size of the device memory.
        capacity: u64,
    },
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
    /// Pooling: the allocation id is not (or no longer) live on this switch.
    UnknownAllocation(u64),
    /// An in-place computation named more input ranges than the device reads
    /// in one call.
    TooManyInputs {
        /// Inputs named.
        inputs: usize,
        /// Most inputs one call takes.
        max: usize,
    },
    /// An in-place computation's input range overlaps its output range.
    OverlappingRanges {
        /// Device-local address of the input.
        input: u64,
        /// Device-local address of the output.
        output: u64,
        /// Length of each range in bytes.
        len: usize,
    },
}

impl fmt::Display for CxlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CxlError::OutOfBounds { dpa, len, capacity } => write!(
                f,
                "access of {len} bytes at device address {dpa:#x} exceeds capacity {capacity:#x}"
            ),
            CxlError::UnknownPort(p) => write!(f, "unknown switch port {p}"),
            CxlError::PortAlreadyBound(p) => write!(f, "switch port {p} already bound"),
            CxlError::InsufficientCapacity {
                requested,
                available,
            } => write!(
                f,
                "pool cannot satisfy {requested} bytes, only {available} unassigned"
            ),
            CxlError::UnknownAllocation(id) => {
                write!(f, "pool allocation {id} is not live on this switch")
            }
            CxlError::TooManyInputs { inputs, max } => write!(
                f,
                "in-place computation names {inputs} inputs, at most {max} are taken"
            ),
            CxlError::OverlappingRanges { input, output, len } => write!(
                f,
                "in-place input at {input:#x} overlaps output at {output:#x} ({len} bytes each)"
            ),
        }
    }
}

impl std::error::Error for CxlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_contain_addresses_in_hex() {
        let e = CxlError::OutOfBounds {
            dpa: 0x20,
            len: 64,
            capacity: 0x40,
        };
        assert!(e.to_string().contains("0x20"));
    }
}
