//! Host-managed Device Memory (HDM) decode.
//!
//! An HDM decoder maps a contiguous range of host physical addresses (HPA)
//! onto device-local physical addresses (DPA). CXL 2.0 allows interleaving a
//! single HPA range across multiple devices. An [`InterleaveSet`] is such a
//! window: it resolves any HPA in it to the device that owns it and the DPA
//! there, through the per-way [`HdmRange`] each device would program.

use crate::error::CxlError;
use crate::Result;

/// Refuses a window whose end does not fit in the 64-bit HPA space.
fn fits_hpa_space(hpa_base: u64, len: u64) -> Result<()> {
    match hpa_base.checked_add(len) {
        Some(_) => Ok(()),
        None => Err(CxlError::InvalidHdmRange(format!(
            "window at {hpa_base:#x} of {len} bytes ends past the top of the HPA space"
        ))),
    }
}

/// Offset of `hpa` into the window `[base, base + len)`, if it lies there.
/// Compares offsets, so a window at the top of the HPA space never sums past
/// it.
fn offset_in(hpa: u64, base: u64, len: u64) -> Option<u64> {
    hpa.checked_sub(base).filter(|&offset| offset < len)
}

/// One HDM decoder range: the slice of an HPA window that one device owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HdmRange {
    /// First host physical address covered.
    pub hpa_base: u64,
    /// Length of the window in bytes.
    pub len: u64,
    /// Device-local address the window starts at.
    pub dpa_base: u64,
    /// Interleave ways (1 = no interleave). With N ways, consecutive
    /// `interleave_granularity` blocks rotate across N devices and this decoder
    /// only owns every N-th block.
    pub interleave_ways: u8,
    /// Which of the interleave ways this device is (0-based).
    pub interleave_position: u8,
    /// Interleave granularity in bytes (256 B to 16 KiB per spec).
    pub interleave_granularity: u64,
}

impl HdmRange {
    /// Translates an HPA to a DPA if this decoder (and interleave way) owns it.
    pub fn translate(&self, hpa: u64) -> Option<u64> {
        let offset = offset_in(hpa, self.hpa_base, self.len)?;
        if self.interleave_ways <= 1 {
            return self.dpa_base.checked_add(offset);
        }
        let ways = self.interleave_ways as u64;
        let gran = self.interleave_granularity;
        let block = offset / gran;
        if (block % ways) as u8 != self.interleave_position {
            return None;
        }
        // Device-local blocks are densely packed.
        let local_block = block / ways;
        self.dpa_base
            .checked_add(local_block * gran + offset % gran)
    }
}

/// A CEDT CFMWS-style interleave set: one host-physical window rotated across
/// `ways` devices at a fixed granularity.
///
/// This is the multi-expander decode the CXL spec expresses as a CXL Fixed
/// Memory Window Structure: consecutive granularity-sized blocks of the
/// window belong to devices 0, 1, …, N−1, 0, 1, … in turn. The set hands out
/// the [`HdmRange`] each way owns ([`InterleaveSet::way_range`]) and resolves
/// any HPA to the `(way, dpa)` pair that owns it ([`InterleaveSet::translate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleaveSet {
    hpa_base: u64,
    len: u64,
    granularity: u64,
    ways: u8,
}

impl InterleaveSet {
    /// Builds a validated interleave set.
    ///
    /// Per the CXL spec, `ways` must be 1, 2, 4, 8 or 16 and `granularity` a
    /// power of two between 256 B and 16 KiB; `len` must be a whole number of
    /// full rotations (`ways × granularity`).
    pub fn new(hpa_base: u64, len: u64, granularity: u64, ways: u8) -> Result<Self> {
        if !matches!(ways, 1 | 2 | 4 | 8 | 16) {
            return Err(CxlError::InvalidHdmRange(format!(
                "interleave ways must be 1, 2, 4, 8 or 16, got {ways}"
            )));
        }
        if !granularity.is_power_of_two() || !(256..=16 * 1024).contains(&granularity) {
            return Err(CxlError::InvalidHdmRange(format!(
                "interleave granularity must be a power of two in 256..=16384, got {granularity}"
            )));
        }
        if len == 0 || !len.is_multiple_of(granularity * ways as u64) {
            return Err(CxlError::InvalidHdmRange(format!(
                "window length {len} is not a whole number of {ways}x{granularity} rotations"
            )));
        }
        if !hpa_base.is_multiple_of(64) {
            return Err(CxlError::InvalidHdmRange(
                "window base must be 64-byte aligned".to_string(),
            ));
        }
        fits_hpa_space(hpa_base, len)?;
        Ok(InterleaveSet {
            hpa_base,
            len,
            granularity,
            ways,
        })
    }

    /// First host physical address of the window.
    pub fn hpa_base(&self) -> u64 {
        self.hpa_base
    }

    /// Window length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Interleave granularity in bytes.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Number of interleave ways (devices).
    pub fn ways(&self) -> u8 {
        self.ways
    }

    /// Bytes each way contributes (`len / ways`).
    pub fn local_bytes(&self) -> u64 {
        self.len / self.ways as u64
    }

    /// Whether an HPA falls inside the window.
    pub fn contains(&self, hpa: u64) -> bool {
        offset_in(hpa, self.hpa_base, self.len).is_some()
    }

    /// The [`HdmRange`] the device at `position` must program (DPA base 0).
    pub fn way_range(&self, position: u8) -> Result<HdmRange> {
        if position >= self.ways {
            return Err(CxlError::InvalidHdmRange(format!(
                "interleave position {position} out of {} ways",
                self.ways
            )));
        }
        Ok(HdmRange {
            hpa_base: self.hpa_base,
            len: self.len,
            dpa_base: 0,
            interleave_ways: self.ways,
            interleave_position: position,
            interleave_granularity: self.granularity,
        })
    }

    /// Resolves an HPA to the `(way, dpa)` pair that owns it.
    pub fn translate(&self, hpa: u64) -> Result<(u8, u64)> {
        let offset =
            offset_in(hpa, self.hpa_base, self.len).ok_or(CxlError::AddressNotMapped(hpa))?;
        let way = ((offset / self.granularity) % self.ways as u64) as u8;
        // The owning way's range contains `hpa` by construction of `way`;
        // the decode path claims never to panic, so a breach of that
        // invariant surfaces as the typed miss it would be.
        let dpa = self
            .way_range(way)?
            .translate(hpa)
            .ok_or(CxlError::AddressNotMapped(hpa))?;
        Ok((way, dpa))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A non-interleaved range.
    fn linear(hpa_base: u64, len: u64, dpa_base: u64) -> HdmRange {
        HdmRange {
            hpa_base,
            len,
            dpa_base,
            interleave_ways: 1,
            interleave_position: 0,
            interleave_granularity: 4096,
        }
    }

    #[test]
    fn linear_translation_is_offset_preserving() {
        // A one-way window maps the HPA offset straight onto the DPA.
        let base = 0x1_0000_0000;
        let set = InterleaveSet::new(base, 1 << 30, 4096, 1).unwrap();
        assert_eq!(set.translate(base).unwrap(), (0, 0));
        assert_eq!(set.translate(base + 0x40).unwrap(), (0, 0x40));
        assert_eq!(set.translate(0), Err(CxlError::AddressNotMapped(0)));
        assert!(set.translate(base + (1 << 30)).is_err());
    }

    #[test]
    fn zero_length_and_misaligned_ranges_are_rejected() {
        assert!(InterleaveSet::new(0, 0, 4096, 1).is_err());
        assert!(InterleaveSet::new(32, 4096, 4096, 1).is_err());
        assert!(InterleaveSet::new(0, 100, 4096, 1).is_err());
        // A window whose end would pass the top of the HPA space is refused,
        // and decoding an address near the top never overflows.
        assert!(matches!(
            InterleaveSet::new(0xFFFF_FFFF_FFFF_0000, 1 << 20, 4096, 1),
            Err(CxlError::InvalidHdmRange(_))
        ));
        let top = linear(0xFFFF_FFFF_FFFF_0000, 1 << 20, 0);
        assert_eq!(top.translate(u64::MAX), Some(0xFFFF));
        assert_eq!(top.translate(0), None);
    }

    #[test]
    fn overlapping_ranges_are_rejected() {
        // Adjacent windows share no address: each HPA decodes in one.
        let low = InterleaveSet::new(0, 4096, 4096, 1).unwrap();
        let high = InterleaveSet::new(4096, 4096, 4096, 1).unwrap();
        for hpa in [0, 4095, 4096, 8191] {
            assert!(low.contains(hpa) != high.contains(hpa), "hpa {hpa:#x}");
        }
        assert!(!low.contains(8192) && !high.contains(8192));
    }

    #[test]
    fn two_way_interleave_splits_blocks() {
        let gran = 4096u64;
        let make = |pos| HdmRange {
            hpa_base: 0,
            len: 8 * gran,
            dpa_base: 0,
            interleave_ways: 2,
            interleave_position: pos,
            interleave_granularity: gran,
        };
        let dev0 = make(0);
        let dev1 = make(1);
        // Block 0 belongs to device 0, block 1 to device 1, etc.
        assert_eq!(dev0.translate(0), Some(0));
        assert_eq!(dev1.translate(0), None);
        assert_eq!(dev0.translate(gran), None);
        assert_eq!(dev1.translate(gran), Some(0));
        assert_eq!(dev0.translate(2 * gran), Some(gran));
        assert_eq!(dev1.translate(3 * gran), Some(gran));
        // Each device backs half the window.
        let owned = (0..8).filter(|b| dev0.translate(b * gran).is_some());
        assert_eq!(owned.count(), 4);
    }

    #[test]
    fn invalid_interleave_configs_rejected() {
        assert!(InterleaveSet::new(0, 4096, 4096, 0).is_err());
        let set = InterleaveSet::new(0, 2 * 4096, 4096, 2).unwrap();
        assert!(matches!(
            set.way_range(2),
            Err(CxlError::InvalidHdmRange(_))
        ));
    }

    #[test]
    fn mapped_bytes_and_clear() {
        // The per-way shares of an interleave set sum to the window length.
        for ways in [1u8, 2, 4, 8, 16] {
            let set = InterleaveSet::new(1 << 30, 64 * 4096, 4096, ways).unwrap();
            assert_eq!(set.local_bytes() * ways as u64, set.len_bytes());
        }
    }

    #[test]
    fn interleave_set_rejects_bad_geometry() {
        assert!(InterleaveSet::new(0, 8 * 4096, 4096, 3).is_err());
        assert!(InterleaveSet::new(0, 8 * 4096, 3000, 2).is_err());
        assert!(InterleaveSet::new(0, 8 * 4096, 128, 2).is_err());
        assert!(InterleaveSet::new(0, 8 * 4096, 32 * 1024, 2).is_err());
        assert!(InterleaveSet::new(0, 4096, 4096, 2).is_err());
        assert!(InterleaveSet::new(0, 0, 4096, 2).is_err());
        assert!(InterleaveSet::new(32, 8 * 4096, 4096, 2).is_err());
        assert!(InterleaveSet::new(0xFFFF_FFFF_FFFF_0000, 1 << 20, 4096, 2).is_err());
        assert!(InterleaveSet::new(0, 8 * 4096, 4096, 2).is_ok());
    }

    #[test]
    fn interleave_set_partitions_the_window() {
        let gran = 4096u64;
        let set = InterleaveSet::new(0x2_0000_0000, 16 * gran, gran, 4).unwrap();
        // Consecutive blocks rotate across the four ways; device-local blocks
        // are densely packed.
        for block in 0..16u64 {
            let hpa = set.hpa_base() + block * gran;
            let (way, dpa) = set.translate(hpa).unwrap();
            assert_eq!(way as u64, block % 4);
            assert_eq!(dpa, (block / 4) * gran);
        }
        assert_eq!(set.local_bytes(), 4 * gran);
        assert!(set.translate(set.hpa_base() + set.len_bytes()).is_err());
        assert!(set.translate(0).is_err());
    }

    #[test]
    fn interleave_set_programs_consistent_decoders() {
        let gran = 4096u64;
        let set = InterleaveSet::new(0x1000, 8 * gran, gran, 2).unwrap();
        let ranges = [set.way_range(0).unwrap(), set.way_range(1).unwrap()];
        // Every granule resolves through exactly the way range the set names.
        for block in 0..8u64 {
            let hpa = 0x1000 + block * gran;
            let (way, dpa) = set.translate(hpa).unwrap();
            assert_eq!(ranges[way as usize].translate(hpa), Some(dpa));
            assert_eq!(ranges[1 - way as usize].translate(hpa), None);
        }
    }

    #[test]
    fn interleave_set_way_range_bounds_position() {
        let set = InterleaveSet::new(0, 8 * 4096, 4096, 2).unwrap();
        assert!(set.way_range(0).is_ok());
        assert!(set.way_range(1).is_ok());
        assert!(set.way_range(2).is_err());
    }

    proptest! {
        #[test]
        fn prop_interleave_set_matches_per_way_ranges(
            block in 0u64..512,
            ways_index in 0usize..5,
        ) {
            let ways = [1u8, 2, 4, 8, 16][ways_index];
            let gran = 4096u64;
            let set = InterleaveSet::new(0, 512 * gran * 16, gran, ways).unwrap();
            let hpa = block * gran + 128;
            let (way, dpa) = set.translate(hpa).unwrap();
            prop_assert!(way < ways);
            // The owning way's HdmRange agrees; every other way declines.
            for pos in 0..ways {
                let translated = set.way_range(pos).unwrap().translate(hpa);
                if pos == way {
                    prop_assert_eq!(translated, Some(dpa));
                } else {
                    prop_assert_eq!(translated, None);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_linear_round_trip(offset in 0u64..(1 << 24)) {
            let base = 0x2_0000_0000u64;
            let range = linear(base, 1 << 24, 0x100_0000);
            let aligned = offset & !63;
            if aligned < 1 << 24 {
                let dpa = range.translate(base + aligned).unwrap();
                prop_assert_eq!(dpa, 0x100_0000 + aligned);
            }
        }

        #[test]
        fn prop_interleave_ways_partition_address_space(
            block in 0u64..1024,
            ways in 2u8..5,
        ) {
            let gran = 4096u64;
            let hpa = block * gran;
            let mut owners = 0;
            for pos in 0..ways {
                let range = HdmRange {
                    hpa_base: 0,
                    len: 1024 * gran,
                    dpa_base: 0,
                    interleave_ways: ways,
                    interleave_position: pos,
                    interleave_granularity: gran,
                };
                if range.translate(hpa).is_some() {
                    owners += 1;
                }
            }
            // Exactly one interleave way owns any given block.
            prop_assert_eq!(owners, 1);
        }
    }
}
