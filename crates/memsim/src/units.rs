//! Small unit helpers shared by the simulator and the harness.
//!
//! STREAM reports bandwidth in decimal GB/s (1 GB = 1e9 bytes), which is the
//! convention the paper follows; capacities are reported in binary GiB.

/// Bytes in a binary kibibyte.
pub const KIB: u64 = 1024;
/// Bytes in a binary mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// Bytes in a binary gibibyte.
pub const GIB: u64 = 1024 * MIB;
/// Bytes in a decimal gigabyte (the STREAM/`GB/s` convention).
pub const GB: u64 = 1_000_000_000;
/// Cache-line size in bytes on all modelled CPUs.
pub const CACHE_LINE: u64 = 64;

/// Converts bytes and seconds into decimal GB/s.
pub fn gbs(bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    bytes as f64 / GB as f64 / seconds
}

#[cfg(test)]
// The whole point of these tests is sanity-checking calibration constants.
#[allow(clippy::assertions_on_constants)]
mod tests {
    use super::*;

    #[test]
    fn gbs_matches_stream_convention() {
        // 10 GB moved in 1 second = 10 GB/s.
        assert!((gbs(10 * GB, 1.0) - 10.0).abs() < 1e-12);
        // Zero or negative time yields zero instead of infinity.
        assert_eq!(gbs(GB, 0.0), 0.0);
        assert_eq!(gbs(GB, -1.0), 0.0);
    }

    #[test]
    fn gb_and_gib_differ() {
        assert!(GIB > GB);
        assert_eq!(GIB, 1_073_741_824);
    }
}
