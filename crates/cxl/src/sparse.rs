//! Sparse byte store used as the backing memory of modelled devices.
//!
//! A real expander carries tens of GiB; allocating that eagerly in a test
//! process is wasteful and slow. [`SparseMemory`] provides the same semantics
//! as a zero-initialised `Vec<u8>` of the full capacity — reads of untouched
//! regions return zeros — while only materialising 64 KiB chunks that have
//! actually been written.
//!
//! Every host and worker thread that reaches a device shares its store, so
//! the store is lock-striped per chunk: reads and writes take `&self` and
//! lock only the chunks they touch, one at a time. Threads working on
//! disjoint chunks never contend, and once a chunk exists no transfer
//! allocates. Chunk slots sit in a two-level table — a fixed directory of
//! segments created on first write — so a lookup is two index operations and
//! a terabyte of logical capacity costs a directory of a few hundred KiB.
//!
//! A transfer that spans several chunks is atomic per chunk, not as a whole,
//! like a real expander, which only orders accesses per granule. Hosts that
//! need a whole range to be consistent order their accesses with the
//! publish/acquire protocol of [`SharedRegion`](crate::SharedRegion).

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Chunk granularity of the sparse store.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Chunks per directory segment (64 MiB of logical capacity).
const SEGMENT_CHUNKS: usize = 1024;

/// One chunk: absent (reads as zeros) until first written.
type Chunk = RwLock<Option<Box<[u8]>>>;

/// A sparse, zero-default byte store with a fixed logical capacity.
pub struct SparseMemory {
    capacity: u64,
    segments: Box<[OnceLock<Box<[Chunk]>>]>,
    resident_chunks: AtomicU64,
}

impl std::fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMemory")
            .field("capacity", &self.capacity)
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// The pieces of `[offset, offset + len)` that fall into each chunk:
/// `(chunk index, offset within the chunk, offset within the range, length)`.
fn pieces(offset: u64, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        if done >= len {
            return None;
        }
        let pos = offset + done as u64;
        let chunk = (pos / CHUNK_BYTES as u64) as usize;
        let within = (pos % CHUNK_BYTES as u64) as usize;
        let take = (CHUNK_BYTES - within).min(len - done);
        let piece = (chunk, within, done, take);
        done += take;
        Some(piece)
    })
}

impl SparseMemory {
    /// Creates a store with the given logical capacity.
    pub fn new(capacity: u64) -> Self {
        let chunks = capacity.div_ceil(CHUNK_BYTES as u64);
        let segments = chunks.div_ceil(SEGMENT_CHUNKS as u64) as usize;
        SparseMemory {
            capacity,
            segments: (0..segments).map(|_| OnceLock::new()).collect(),
            resident_chunks: AtomicU64::new(0),
        }
    }

    /// Logical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of physical memory actually materialised.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_chunks.load(Ordering::Relaxed) * CHUNK_BYTES as u64
    }

    /// Returns `true` if the range `[offset, offset + len)` fits in the store.
    pub fn in_bounds(&self, offset: u64, len: usize) -> bool {
        offset
            .checked_add(len as u64)
            .map(|end| end <= self.capacity)
            .unwrap_or(false)
    }

    /// The slot of chunk `index`, if its segment exists.
    fn chunk(&self, index: usize) -> Option<&Chunk> {
        let segment = self.segments[index / SEGMENT_CHUNKS].get()?;
        Some(&segment[index % SEGMENT_CHUNKS])
    }

    /// The slot of chunk `index`, creating its segment on first use.
    fn chunk_or_create(&self, index: usize) -> &Chunk {
        let segment = self.segments[index / SEGMENT_CHUNKS]
            .get_or_init(|| (0..SEGMENT_CHUNKS).map(|_| RwLock::new(None)).collect());
        &segment[index % SEGMENT_CHUNKS]
    }

    /// Write-locks chunk `index`, materialising it (zeroed) if absent, and
    /// runs `f` on its bytes.
    fn with_chunk_mut(&self, index: usize, f: impl FnOnce(&mut [u8])) {
        let mut slot = self.chunk_or_create(index).write();
        let bytes = slot.get_or_insert_with(|| {
            self.resident_chunks.fetch_add(1, Ordering::Relaxed);
            vec![0u8; CHUNK_BYTES].into_boxed_slice()
        });
        f(bytes);
    }

    /// Reads `buf.len()` bytes at `offset`. Untouched regions read as zero.
    /// Panics if out of bounds — callers bound-check first.
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        assert!(
            self.in_bounds(offset, buf.len()),
            "sparse read out of bounds"
        );
        for (index, within, done, take) in pieces(offset, buf.len()) {
            let out = &mut buf[done..done + take];
            match self.chunk(index) {
                Some(slot) => match slot.read().as_deref() {
                    Some(chunk) => out.copy_from_slice(&chunk[within..within + take]),
                    None => out.fill(0),
                },
                None => out.fill(0),
            }
        }
    }

    /// Writes `data` at `offset`, materialising chunks as needed.
    /// Panics if out of bounds — callers bound-check first.
    pub fn write(&self, offset: u64, data: &[u8]) {
        assert!(
            self.in_bounds(offset, data.len()),
            "sparse write out of bounds"
        );
        for (index, within, done, take) in pieces(offset, data.len()) {
            self.with_chunk_mut(index, |chunk| {
                chunk[within..within + take].copy_from_slice(&data[done..done + take])
            });
        }
    }

    /// Writes only the bytes of `data` whose bit is set in `byte_enable`
    /// (bit `i` enables `data[i]`, so `data` is at most 64 bytes), leaving the
    /// others as they are. Each chunk's part is merged under that chunk's
    /// lock, so concurrent partial writes to one line never lose bytes.
    /// Panics if out of bounds — callers bound-check first.
    pub fn write_masked(&self, offset: u64, data: &[u8], byte_enable: u64) {
        assert!(data.len() <= 64, "byte-enable mask covers 64 bytes");
        assert!(
            self.in_bounds(offset, data.len()),
            "sparse write out of bounds"
        );
        for (index, within, done, take) in pieces(offset, data.len()) {
            self.with_chunk_mut(index, |chunk| {
                for i in done..done + take {
                    if byte_enable & (1 << i) != 0 {
                        chunk[within + i - done] = data[i];
                    }
                }
            });
        }
    }

    /// Clears every byte back to zero (drops all chunks).
    pub fn clear(&self) {
        for segment in self.segments.iter().filter_map(OnceLock::get) {
            for slot in segment.iter() {
                if slot.write().take().is_some() {
                    self.resident_chunks.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = SparseMemory::new(1 << 40); // a terabyte costs nothing
        let mut buf = [0xFFu8; 256];
        mem.read((1 << 39) + 17, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(mem.resident_bytes(), 0);
    }

    #[test]
    fn write_read_round_trip_across_chunk_boundary() {
        let mem = SparseMemory::new(1 << 20);
        let offset = CHUNK_BYTES as u64 - 10;
        let data: Vec<u8> = (0..64u8).collect();
        mem.write(offset, &data);
        let mut back = vec![0u8; 64];
        mem.read(offset, &mut back);
        assert_eq!(back, data);
        assert_eq!(mem.resident_bytes(), 2 * CHUNK_BYTES as u64);
    }

    #[test]
    fn round_trip_across_segment_boundary() {
        let mem = SparseMemory::new(4 * (SEGMENT_CHUNKS * CHUNK_BYTES) as u64);
        let offset = (SEGMENT_CHUNKS * CHUNK_BYTES) as u64 - 100;
        let data: Vec<u8> = (0..=255u8).collect();
        mem.write(offset, &data);
        let mut back = vec![0u8; data.len()];
        mem.read(offset, &mut back);
        assert_eq!(back, data);
        assert_eq!(mem.resident_bytes(), 2 * CHUNK_BYTES as u64);
    }

    #[test]
    fn capacity_need_not_be_chunk_aligned() {
        let mem = SparseMemory::new(CHUNK_BYTES as u64 + 3);
        mem.write(CHUNK_BYTES as u64, &[1, 2, 3]);
        let mut back = [0u8; 3];
        mem.read(CHUNK_BYTES as u64, &mut back);
        assert_eq!(back, [1, 2, 3]);
        assert!(!mem.in_bounds(CHUNK_BYTES as u64, 4));
    }

    #[test]
    fn bounds_checking() {
        let mem = SparseMemory::new(1024);
        assert!(mem.in_bounds(0, 1024));
        assert!(!mem.in_bounds(1, 1024));
        assert!(!mem.in_bounds(u64::MAX, 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let mem = SparseMemory::new(16);
        let mut buf = [0u8; 32];
        mem.read(0, &mut buf);
    }

    #[test]
    fn clear_resets_to_zero() {
        let mem = SparseMemory::new(4096);
        mem.write(0, &[1u8; 128]);
        mem.clear();
        let mut buf = [9u8; 128];
        mem.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(mem.resident_bytes(), 0);
    }

    #[test]
    fn masked_write_merges_enabled_bytes_across_a_chunk_boundary() {
        let mem = SparseMemory::new(1 << 20);
        let offset = CHUNK_BYTES as u64 - 32;
        mem.write(offset, &[0xFF; 64]);
        // Even bytes only: 16 on each side of the boundary.
        mem.write_masked(offset, &[0u8; 64], 0x5555_5555_5555_5555);
        let mut back = [0u8; 64];
        mem.read(offset, &mut back);
        for (i, &b) in back.iter().enumerate() {
            assert_eq!(b, if i % 2 == 0 { 0 } else { 0xFF }, "byte {i}");
        }
    }

    #[test]
    fn threads_writing_disjoint_chunks_see_only_their_bytes() {
        let mem = SparseMemory::new(64 * CHUNK_BYTES as u64);
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let mem = &mem;
                s.spawn(move || {
                    // Interleaved chunks, unaligned transfers spanning two of them.
                    for round in 0..50u64 {
                        let chunk = (round % 16) * 4 + t as u64;
                        let offset = chunk * CHUNK_BYTES as u64 + 100;
                        let data = vec![t + 1; CHUNK_BYTES - 100];
                        mem.write(offset, &data);
                        let mut back = vec![0u8; data.len()];
                        mem.read(offset, &mut back);
                        assert!(back.iter().all(|&b| b == t + 1));
                    }
                });
            }
        });
        assert_eq!(mem.resident_bytes(), 64 * CHUNK_BYTES as u64);
    }

    #[test]
    fn concurrent_masked_writes_to_one_line_lose_no_bytes() {
        let mem = SparseMemory::new(4096);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let mem = &mem;
                // Thread t owns bytes 8t..8t+8 of the line.
                s.spawn(move || {
                    for _ in 0..200 {
                        mem.write_masked(0, &[t as u8 + 1; 64], 0xFF << (8 * t));
                    }
                });
            }
        });
        let mut line = [0u8; 64];
        mem.read(0, &mut line);
        for (i, &b) in line.iter().enumerate() {
            assert_eq!(b, (i / 8) as u8 + 1, "byte {i}");
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(offset in 0u64..500_000, data in proptest::collection::vec(any::<u8>(), 1..512)) {
            let mem = SparseMemory::new(1 << 20);
            if mem.in_bounds(offset, data.len()) {
                mem.write(offset, &data);
                let mut back = vec![0u8; data.len()];
                mem.read(offset, &mut back);
                prop_assert_eq!(back, data);
            }
        }

        #[test]
        fn prop_disjoint_writes_do_not_interfere(
            a_off in 0u64..1000u64,
            b_off in 2000u64..3000u64,
        ) {
            let mem = SparseMemory::new(1 << 20);
            mem.write(a_off, &[0xAA; 100]);
            mem.write(b_off, &[0xBB; 100]);
            let mut a = [0u8; 100];
            let mut b = [0u8; 100];
            mem.read(a_off, &mut a);
            mem.read(b_off, &mut b);
            prop_assert!(a.iter().all(|&x| x == 0xAA));
            prop_assert!(b.iter().all(|&x| x == 0xBB));
        }
    }
}
