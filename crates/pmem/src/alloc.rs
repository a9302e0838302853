//! The persistent heap allocator.
//!
//! PMDK's `POBJ_ALLOC` hands out blocks from a heap whose metadata lives in
//! the pool itself, so allocations survive restarts. [`PersistentHeap`] does
//! the same with a deliberately simple design: every block is preceded by a
//! 16-byte header (`size`, `state`) written and flushed before the allocation
//! is returned; a first-fit scan with forward coalescing services requests;
//! recovery is a linear scan of the headers, which also doubles as a
//! consistency check.

use crate::backend::SharedBackend;
use crate::error::PmemError;
use crate::persist::PersistTracker;
use crate::Result;
use std::sync::Arc;

/// Size of a block header in bytes.
pub const BLOCK_HEADER: u64 = 16;
/// Allocation granule: payloads are rounded up to this.
pub const ALLOC_ALIGN: u64 = 64;
/// Minimum payload worth splitting a block for.
const MIN_SPLIT_PAYLOAD: u64 = ALLOC_ALIGN;

const STATE_FREE: u64 = 0xF4EE_F4EE_F4EE_F4EE;
const STATE_ALLOCATED: u64 = 0xA110_CA7E_A110_CA7E;

/// Aggregate statistics of the persistent heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Total heap payload capacity in bytes (excluding headers).
    pub capacity: u64,
    /// Bytes currently allocated (payload only).
    pub allocated: u64,
    /// Bytes currently free (payload only).
    pub free: u64,
    /// Largest single free payload.
    pub largest_free: u64,
    /// Number of allocated blocks.
    pub allocated_blocks: u64,
    /// Number of free blocks (fragmentation indicator).
    pub free_blocks: u64,
}

/// A first-fit persistent heap over a byte range of the pool.
pub struct PersistentHeap {
    backend: SharedBackend,
    tracker: Arc<PersistTracker>,
    heap_start: u64,
    heap_end: u64,
}

impl PersistentHeap {
    /// Creates a handle over `[heap_start, heap_end)`. Call [`format`](Self::format)
    /// on a brand new pool or [`validate`](Self::validate) on an existing one.
    pub fn new(
        backend: SharedBackend,
        tracker: Arc<PersistTracker>,
        heap_start: u64,
        heap_end: u64,
    ) -> Self {
        PersistentHeap {
            backend,
            tracker,
            heap_start,
            heap_end,
        }
    }

    /// Formats the heap as one big free block.
    pub fn format(&self) -> Result<()> {
        let size = self.heap_end - self.heap_start;
        if size < BLOCK_HEADER + ALLOC_ALIGN {
            return Err(PmemError::PoolTooSmall {
                bytes: size,
                minimum: BLOCK_HEADER + ALLOC_ALIGN,
            });
        }
        self.write_header(self.heap_start, size, STATE_FREE)?;
        Ok(())
    }

    /// Start of the heap region.
    pub fn heap_start(&self) -> u64 {
        self.heap_start
    }

    /// End of the heap region.
    pub fn heap_end(&self) -> u64 {
        self.heap_end
    }

    fn read_u64(&self, offset: u64) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.backend.read_at(offset, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn write_u64(&self, offset: u64, value: u64) -> Result<()> {
        self.backend.write_at(offset, &value.to_le_bytes())
    }

    fn read_header(&self, block: u64) -> Result<(u64, u64)> {
        let size = self.read_u64(block)?;
        let state = self.read_u64(block + 8)?;
        Ok((size, state))
    }

    /// End of the block at `block` whose header says `size`, if that size
    /// describes a real block: at least a header long and ending inside the
    /// heap. Header bytes may come from shared or corrupted media, so the
    /// end is computed without overflow.
    fn block_end(&self, block: u64, size: u64) -> Option<u64> {
        if size < BLOCK_HEADER {
            return None;
        }
        block.checked_add(size).filter(|&end| end <= self.heap_end)
    }

    fn write_header(&self, block: u64, size: u64, state: u64) -> Result<()> {
        self.write_u64(block, size)?;
        self.write_u64(block + 8, state)?;
        self.tracker.persist(&self.backend, block, BLOCK_HEADER)?;
        Ok(())
    }

    /// Allocates `bytes` of payload; returns the payload offset.
    pub fn alloc(&self, bytes: u64) -> Result<u64> {
        if bytes == 0 {
            return Err(PmemError::SizeOverflow);
        }
        let payload = bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        let needed = payload
            .checked_add(BLOCK_HEADER)
            .ok_or(PmemError::SizeOverflow)?;
        let mut cursor = self.heap_start;
        let mut largest_free = 0u64;
        while cursor + BLOCK_HEADER <= self.heap_end {
            let (mut size, state) = self.read_header(cursor)?;
            if self.block_end(cursor, size).is_none() {
                // Corrupted or never-formatted tail; stop scanning.
                break;
            }
            if state == STATE_FREE {
                // Forward-coalesce adjacent free blocks while we are here.
                loop {
                    let next = cursor + size;
                    if next + BLOCK_HEADER > self.heap_end {
                        break;
                    }
                    let (next_size, next_state) = self.read_header(next)?;
                    if next_state == STATE_FREE && self.block_end(next, next_size).is_some() {
                        size += next_size;
                        self.write_header(cursor, size, STATE_FREE)?;
                    } else {
                        break;
                    }
                }
                let available_payload = size - BLOCK_HEADER;
                largest_free = largest_free.max(available_payload);
                if size >= needed {
                    let remainder = size - needed;
                    if remainder >= BLOCK_HEADER + MIN_SPLIT_PAYLOAD {
                        // Split: write the new free block header first so a
                        // crash between the two writes never loses heap space
                        // permanently (recovery re-coalesces).
                        self.write_header(cursor + needed, remainder, STATE_FREE)?;
                        self.write_header(cursor, needed, STATE_ALLOCATED)?;
                    } else {
                        self.write_header(cursor, size, STATE_ALLOCATED)?;
                    }
                    return Ok(cursor + BLOCK_HEADER);
                }
            }
            // In the heap: the block, and any block coalesced into it, passed
            // `block_end`.
            cursor += size;
        }
        Err(PmemError::OutOfMemory {
            requested: bytes,
            largest_free,
        })
    }

    /// Frees a payload offset previously returned by [`alloc`](Self::alloc).
    pub fn free(&self, payload_offset: u64) -> Result<()> {
        if payload_offset < self.heap_start + BLOCK_HEADER || payload_offset >= self.heap_end {
            return Err(PmemError::InvalidOid);
        }
        let block = payload_offset - BLOCK_HEADER;
        let (size, state) = self.read_header(block)?;
        if state != STATE_ALLOCATED || self.block_end(block, size).is_none() {
            return Err(PmemError::NotAllocated(payload_offset));
        }
        self.write_header(block, size, STATE_FREE)?;
        Ok(())
    }

    /// Payload size of an allocated block.
    pub fn usable_size(&self, payload_offset: u64) -> Result<u64> {
        let block = payload_offset
            .checked_sub(BLOCK_HEADER)
            .ok_or(PmemError::InvalidOid)?;
        let (size, state) = self.read_header(block)?;
        if state != STATE_ALLOCATED || self.block_end(block, size).is_none() {
            return Err(PmemError::NotAllocated(payload_offset));
        }
        Ok(size - BLOCK_HEADER)
    }

    /// Walks the heap and returns aggregate statistics; also serves as the
    /// recovery-time consistency check (every byte must be covered by a valid
    /// block).
    pub fn stats(&self) -> Result<AllocStats> {
        let mut stats = AllocStats::default();
        let mut cursor = self.heap_start;
        while cursor + BLOCK_HEADER <= self.heap_end {
            let (size, state) = self.read_header(cursor)?;
            if size == 0 {
                break;
            }
            let end = self
                .block_end(cursor, size)
                .ok_or(PmemError::NotAllocated(cursor))?;
            let payload = size - BLOCK_HEADER;
            stats.capacity += payload;
            match state {
                STATE_ALLOCATED => {
                    stats.allocated += payload;
                    stats.allocated_blocks += 1;
                }
                STATE_FREE => {
                    stats.free += payload;
                    stats.free_blocks += 1;
                    stats.largest_free = stats.largest_free.max(payload);
                }
                _ => return Err(PmemError::NotAllocated(cursor)),
            }
            cursor = end;
        }
        Ok(stats)
    }

    /// Validates the heap structure (used when reopening a pool).
    pub fn validate(&self) -> Result<()> {
        self.stats().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::VolatileBackend;
    use proptest::prelude::*;

    fn heap(capacity: u64) -> PersistentHeap {
        let backend: SharedBackend = Arc::new(VolatileBackend::new(capacity));
        let tracker = Arc::new(PersistTracker::new());
        let heap = PersistentHeap::new(backend, tracker, 0, capacity);
        heap.format().unwrap();
        heap
    }

    #[test]
    fn format_creates_single_free_block() {
        let h = heap(64 * 1024);
        let stats = h.stats().unwrap();
        assert_eq!(stats.free_blocks, 1);
        assert_eq!(stats.allocated_blocks, 0);
        assert_eq!(stats.free, 64 * 1024 - BLOCK_HEADER);
        assert_eq!(stats.largest_free, stats.free);
    }

    #[test]
    fn tiny_heap_is_rejected() {
        let backend: SharedBackend = Arc::new(VolatileBackend::new(32));
        let h = PersistentHeap::new(backend, Arc::new(PersistTracker::new()), 0, 32);
        assert!(matches!(
            h.format().unwrap_err(),
            PmemError::PoolTooSmall { .. }
        ));
    }

    #[test]
    fn alloc_free_round_trip() {
        let h = heap(64 * 1024);
        let a = h.alloc(100).unwrap();
        let b = h.alloc(200).unwrap();
        assert_ne!(a, b);
        assert!(h.usable_size(a).unwrap() >= 100);
        assert!(h.usable_size(b).unwrap() >= 200);
        let stats = h.stats().unwrap();
        assert_eq!(stats.allocated_blocks, 2);
        h.free(a).unwrap();
        h.free(b).unwrap();
        let stats = h.stats().unwrap();
        assert_eq!(stats.allocated_blocks, 0);
        assert_eq!(stats.allocated, 0);
    }

    #[test]
    fn double_free_is_detected() {
        let h = heap(16 * 1024);
        let a = h.alloc(64).unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.free(a).unwrap_err(), PmemError::NotAllocated(_)));
        assert!(h.free(12).is_err());
        assert!(h.free(1 << 40).is_err());
    }

    #[test]
    fn zero_byte_alloc_is_rejected() {
        let h = heap(16 * 1024);
        assert!(h.alloc(0).is_err());
    }

    #[test]
    fn out_of_memory_reports_largest_free() {
        let h = heap(4 * 1024);
        let err = h.alloc(1 << 20).unwrap_err();
        match err {
            PmemError::OutOfMemory { largest_free, .. } => {
                assert!(largest_free > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn freed_space_is_coalesced_and_reused() {
        let h = heap(8 * 1024);
        // Fill the heap with several allocations.
        let blocks: Vec<u64> = (0..4).map(|_| h.alloc(1024).unwrap()).collect();
        assert!(h.alloc(4096).is_err());
        // Free two adjacent blocks: a 2 KiB allocation must fit again.
        h.free(blocks[1]).unwrap();
        h.free(blocks[2]).unwrap();
        let merged = h.alloc(2048).unwrap();
        assert!(merged >= blocks[1] && merged < blocks[3]);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let h = heap(64 * 1024);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for i in 1..=20u64 {
            let size = i * 30;
            let offset = h.alloc(size).unwrap();
            let usable = h.usable_size(offset).unwrap();
            for &(start, end) in &ranges {
                assert!(
                    offset + usable <= start || offset >= end,
                    "overlap detected"
                );
            }
            ranges.push((offset, offset + usable));
        }
    }

    #[test]
    fn heap_state_survives_reopen_via_shared_backend() {
        let backend = VolatileBackend::new(32 * 1024);
        let shared: SharedBackend = Arc::new(backend.clone());
        let tracker = Arc::new(PersistTracker::new());
        let h1 = PersistentHeap::new(shared, tracker, 0, 32 * 1024);
        h1.format().unwrap();
        let a = h1.alloc(500).unwrap();
        drop(h1);
        // "Reopen" the heap over the same bytes — like a process restart.
        let shared2: SharedBackend = Arc::new(backend);
        let h2 = PersistentHeap::new(shared2, Arc::new(PersistTracker::new()), 0, 32 * 1024);
        h2.validate().unwrap();
        let stats = h2.stats().unwrap();
        assert_eq!(stats.allocated_blocks, 1);
        assert!(h2.usable_size(a).unwrap() >= 500);
        h2.free(a).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_alloc_free_never_corrupts_heap(sizes in proptest::collection::vec(1u64..2000, 1..40)) {
            let h = heap(1 << 20);
            let mut live: Vec<u64> = Vec::new();
            for (i, &size) in sizes.iter().enumerate() {
                match h.alloc(size) {
                    Ok(offset) => live.push(offset),
                    Err(PmemError::OutOfMemory { .. }) => {}
                    Err(other) => return Err(TestCaseError::fail(format!("alloc failed: {other}"))),
                }
                // Periodically free the oldest live allocation.
                if i % 3 == 2 {
                    if let Some(first) = live.first().copied() {
                        h.free(first).unwrap();
                        live.remove(0);
                    }
                }
                h.validate().unwrap();
            }
            let stats = h.stats().unwrap();
            prop_assert_eq!(stats.allocated_blocks as usize, live.len());
        }

        #[test]
        fn prop_capacity_is_conserved(sizes in proptest::collection::vec(64u64..4096, 1..16)) {
            let h = heap(1 << 20);
            let initial = h.stats().unwrap();
            let offsets: Vec<u64> = sizes.iter().filter_map(|&s| h.alloc(s).ok()).collect();
            for offset in offsets {
                h.free(offset).unwrap();
            }
            // Allocate once more to force coalescing, then free it.
            if let Ok(big) = h.alloc(initial.largest_free / 2) {
                h.free(big).unwrap();
            }
            let end = h.stats().unwrap();
            // Payload capacity can only shrink by header fragmentation, never grow.
            prop_assert!(end.capacity <= initial.capacity);
            prop_assert_eq!(end.allocated, 0);
        }
    }
}
