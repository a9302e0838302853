//! Host-managed Device Memory (HDM) decoders.
//!
//! An HDM decoder maps a contiguous range of host physical addresses (HPA)
//! onto device-local physical addresses (DPA). CXL 2.0 allows several decoders
//! per device and interleaving a single HPA range across multiple devices; the
//! paper's prototype programs one decoder per NUMA-exposed region.

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

/// One programmed HDM decoder range.
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
    /// Interleave granularity in bytes (256 B to 16 KiB per spec; 4 KiB here).
    pub interleave_granularity: u64,
}

impl HdmRange {
    /// A simple non-interleaved range.
    pub fn linear(hpa_base: u64, len: u64, dpa_base: u64) -> Self {
        HdmRange {
            hpa_base,
            len,
            dpa_base,
            interleave_ways: 1,
            interleave_position: 0,
            interleave_granularity: 4096,
        }
    }

    /// Whether an HPA falls inside this window.
    pub fn contains(&self, hpa: u64) -> bool {
        offset_in(hpa, self.hpa_base, self.len).is_some()
    }

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

    /// Bytes of the HPA window that this decoder actually backs (len / ways).
    pub fn local_bytes(&self) -> u64 {
        self.len / self.interleave_ways.max(1) as u64
    }
}

/// A set of HDM decoders belonging to one device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HdmDecoder {
    ranges: Vec<HdmRange>,
}

impl HdmDecoder {
    /// Creates an empty decoder set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Programs an additional decoder range. Ranges must not overlap in HPA
    /// space, must be cache-line aligned and must end inside the HPA space.
    pub fn program(&mut self, range: HdmRange) -> Result<()> {
        if range.len == 0 {
            return Err(CxlError::InvalidHdmRange("zero-length range".to_string()));
        }
        fits_hpa_space(range.hpa_base, range.len)?;
        if !range.hpa_base.is_multiple_of(64) || !range.len.is_multiple_of(64) {
            return Err(CxlError::InvalidHdmRange(
                "range must be 64-byte aligned".to_string(),
            ));
        }
        if range.interleave_ways == 0 {
            return Err(CxlError::InvalidHdmRange(
                "zero interleave ways".to_string(),
            ));
        }
        if range.interleave_position >= range.interleave_ways {
            return Err(CxlError::InvalidHdmRange(format!(
                "interleave position {} out of {} ways",
                range.interleave_position, range.interleave_ways
            )));
        }
        for existing in &self.ranges {
            let overlap = existing.contains(range.hpa_base) || range.contains(existing.hpa_base);
            if overlap {
                return Err(CxlError::InvalidHdmRange(format!(
                    "range at {:#x} overlaps existing range at {:#x}",
                    range.hpa_base, existing.hpa_base
                )));
            }
        }
        self.ranges.push(range);
        Ok(())
    }

    /// All programmed ranges.
    pub fn ranges(&self) -> &[HdmRange] {
        &self.ranges
    }

    /// Translates an HPA to a DPA.
    pub fn translate(&self, hpa: u64) -> Result<u64> {
        for range in &self.ranges {
            if let Some(dpa) = range.translate(hpa) {
                return Ok(dpa);
            }
        }
        Err(CxlError::AddressNotMapped(hpa))
    }

    /// Total device-local bytes mapped by all decoders.
    pub fn mapped_bytes(&self) -> u64 {
        self.ranges.iter().map(|r| r.local_bytes()).sum()
    }

    /// Removes every programmed range.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }
}

/// A CEDT CFMWS-style interleave set: one host-physical window rotated across
/// `ways` devices at a fixed granularity.
///
/// This is the multi-expander decode the CXL spec expresses as a CXL Fixed
/// Memory Window Structure: consecutive granularity-sized blocks of the
/// window belong to devices 0, 1, …, N−1, 0, 1, … in turn. The set hands out
/// one [`HdmRange`] per way ([`InterleaveSet::way_range`]) so each device's
/// [`HdmDecoder`] can be programmed consistently, and resolves any HPA to the
/// `(way, dpa)` pair that owns it ([`InterleaveSet::translate`]).
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

    /// Programs the way at `position` into a device's decoder.
    pub fn program_way(&self, decoder: &mut HdmDecoder, position: u8) -> Result<()> {
        decoder.program(self.way_range(position)?)
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

    #[test]
    fn linear_translation_is_offset_preserving() {
        let mut dec = HdmDecoder::new();
        dec.program(HdmRange::linear(0x1_0000_0000, 1 << 30, 0))
            .unwrap();
        assert_eq!(dec.translate(0x1_0000_0000).unwrap(), 0);
        assert_eq!(dec.translate(0x1_0000_0040).unwrap(), 0x40);
        assert!(dec.translate(0x0).is_err());
        assert!(dec.translate(0x1_0000_0000 + (1 << 30)).is_err());
    }

    #[test]
    fn zero_length_and_misaligned_ranges_are_rejected() {
        let mut dec = HdmDecoder::new();
        assert!(dec.program(HdmRange::linear(0, 0, 0)).is_err());
        assert!(dec.program(HdmRange::linear(32, 128, 0)).is_err());
        assert!(dec.program(HdmRange::linear(0, 100, 0)).is_err());
        // A range whose end would pass the top of the HPA space is refused,
        // and deciding whether an address is inside one never overflows.
        let top = HdmRange::linear(0xFFFF_FFFF_FFFF_0000, 1 << 20, 0);
        assert!(matches!(
            dec.program(top),
            Err(CxlError::InvalidHdmRange(_))
        ));
        assert!(top.contains(u64::MAX));
        assert!(!top.contains(0));
        assert_eq!(top.translate(u64::MAX), Some(0xFFFF));
        assert!(dec.ranges().is_empty());
    }

    #[test]
    fn overlapping_ranges_are_rejected() {
        let mut dec = HdmDecoder::new();
        dec.program(HdmRange::linear(0, 4096, 0)).unwrap();
        assert!(dec.program(HdmRange::linear(2048, 4096, 0)).is_err());
        // Adjacent is fine.
        dec.program(HdmRange::linear(4096, 4096, 4096)).unwrap();
        assert_eq!(dec.ranges().len(), 2);
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
        assert_eq!(dev0.local_bytes(), 4 * gran);
    }

    #[test]
    fn invalid_interleave_configs_rejected() {
        let mut dec = HdmDecoder::new();
        let mut r = HdmRange::linear(0, 4096, 0);
        r.interleave_ways = 0;
        assert!(dec.program(r).is_err());
        let mut r = HdmRange::linear(0, 4096, 0);
        r.interleave_ways = 2;
        r.interleave_position = 2;
        assert!(dec.program(r).is_err());
    }

    #[test]
    fn mapped_bytes_and_clear() {
        let mut dec = HdmDecoder::new();
        dec.program(HdmRange::linear(0, 1 << 20, 0)).unwrap();
        dec.program(HdmRange::linear(1 << 30, 1 << 20, 1 << 20))
            .unwrap();
        assert_eq!(dec.mapped_bytes(), 2 << 20);
        dec.clear();
        assert_eq!(dec.mapped_bytes(), 0);
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
        let mut decoders = vec![HdmDecoder::new(), HdmDecoder::new()];
        for (position, decoder) in decoders.iter_mut().enumerate() {
            set.program_way(decoder, position as u8).unwrap();
        }
        // Every granule resolves through exactly the decoder the set names.
        for block in 0..8u64 {
            let hpa = 0x1000 + block * gran;
            let (way, dpa) = set.translate(hpa).unwrap();
            assert_eq!(decoders[way as usize].translate(hpa).unwrap(), dpa);
            let other = &decoders[1 - way as usize];
            assert!(other.translate(hpa).is_err());
        }
        // And each decoder maps exactly its share of the window.
        for decoder in &decoders {
            assert_eq!(decoder.mapped_bytes(), set.local_bytes());
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
            let range = HdmRange::linear(base, 1 << 24, 0x100_0000);
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
