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
//!
//! Besides copying bytes in and out, the store can run a computation on its
//! own bytes in place ([`SparseMemory::apply`]): the caller's function reads
//! up to two input ranges and writes one output range straight in the chunks,
//! the way a kernel loads and stores mapped device memory. A piece of such a
//! call locks every chunk it touches at once, always in ascending chunk
//! order, so concurrent calls cannot deadlock.

use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Chunk granularity of the sparse store.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Most input ranges one [`SparseMemory::apply`] call reads.
pub const MAX_APPLY_INPUTS: usize = 2;

/// A computation [`SparseMemory::apply`] runs in place: it reads one piece
/// of each input range and writes the same-length piece of the output.
pub type ApplyFn<'f> = dyn FnMut(&[&[u8]], &mut [u8]) + 'f;

/// Chunks per directory segment (64 MiB of logical capacity).
const SEGMENT_CHUNKS: usize = 1024;

/// One chunk: absent (reads as zeros) until first written.
type Chunk = RwLock<Option<Box<[u8]>>>;

/// What a never-written chunk holds, lent to readers so a read never
/// materialises a chunk.
static ZERO_CHUNK: [u8; CHUNK_BYTES] = [0; CHUNK_BYTES];

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
        let (chunk, within) = locate(offset + done as u64);
        let take = (CHUNK_BYTES - within).min(len - done);
        let piece = (chunk, within, done, take);
        done += take;
        Some(piece)
    })
}

/// The chunk holding byte `pos`, and the offset of `pos` within it.
fn locate(pos: u64) -> (usize, usize) {
    (
        (pos / CHUNK_BYTES as u64) as usize,
        (pos % CHUNK_BYTES as u64) as usize,
    )
}

/// Whether `[a, a + len)` and `[b, b + len)` share a byte.
pub fn ranges_overlap(a: u64, b: u64, len: usize) -> bool {
    len > 0 && a < b.saturating_add(len as u64) && b < a.saturating_add(len as u64)
}

/// A read guard on one input chunk of an [`SparseMemory::apply`] piece, with
/// its index; `None` in place of the guard when the chunk's segment does not
/// exist yet.
type HeldRead<'a> = Option<(usize, Option<RwLockReadGuard<'a, Option<Box<[u8]>>>>)>;

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
        let segment = self.segments.get(index / SEGMENT_CHUNKS)?.get()?;
        segment.get(index % SEGMENT_CHUNKS)
    }

    /// The slot of chunk `index`, creating its segment on first use. Callers
    /// pass the index of an in-bounds byte.
    fn chunk_or_create(&self, index: usize) -> &Chunk {
        // in-bounds: `new` sized the directory to cover every chunk of the
        // capacity, and `index` holds an in-bounds byte.
        let segment = self.segments[index / SEGMENT_CHUNKS]
            .get_or_init(|| (0..SEGMENT_CHUNKS).map(|_| RwLock::new(None)).collect());
        // in-bounds: every segment holds SEGMENT_CHUNKS slots.
        &segment[index % SEGMENT_CHUNKS]
    }

    /// The bytes of a write-locked chunk, materialised (zeroed) if absent.
    fn materialise<'g>(&self, slot: &'g mut Option<Box<[u8]>>) -> &'g mut [u8] {
        slot.get_or_insert_with(|| {
            self.resident_chunks.fetch_add(1, Ordering::Relaxed);
            vec![0u8; CHUNK_BYTES].into_boxed_slice()
        })
    }

    /// Reads `buf.len()` bytes at `offset`. Untouched regions read as zero.
    /// Panics if out of bounds — callers bound-check first.
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        assert!(
            self.in_bounds(offset, buf.len()),
            "sparse read out of bounds"
        );
        for (index, within, done, take) in pieces(offset, buf.len()) {
            // in-bounds: the pieces tile `[0, buf.len())`.
            let out = &mut buf[done..done + take];
            let slot = self.chunk(index).map(|slot| slot.read());
            match slot.as_ref().and_then(|slot| slot.as_deref()) {
                // in-bounds: a piece ends inside its chunk, within + take ≤ CHUNK_BYTES.
                Some(chunk) => out.copy_from_slice(&chunk[within..within + take]),
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
            let mut slot = self.chunk_or_create(index).write();
            let chunk = self.materialise(&mut slot);
            // in-bounds: a piece ends inside its chunk (within + take ≤
            // CHUNK_BYTES), and the pieces tile `[0, data.len())`.
            chunk[within..within + take].copy_from_slice(&data[done..done + take]);
        }
    }

    /// Runs `f` on the store's own bytes: `f` reads the ranges
    /// `[input, input + len)` for each of `inputs`, in the order given, and
    /// writes `[output, output + len)`, with no copy in between.
    ///
    /// The ranges arrive in pieces that start at the same offset into every
    /// range. Each piece lies inside one chunk of every range, so a split
    /// falls only where some range crosses a chunk boundary: for any power of
    /// two up to [`CHUNK_BYTES`] that divides every offset and `len`, each
    /// piece's start and length are multiples of it too. A piece locks each
    /// distinct chunk it touches once, in ascending chunk order — the
    /// output's for write, the others for read — so concurrent calls over
    /// shared chunks cannot deadlock, and a piece is atomic like a transfer.
    /// An input chunk never written reads as zeros without being
    /// materialised. `f` must not reach the store itself: the piece's chunks
    /// stay locked while it runs.
    ///
    /// Panics if more than [`MAX_APPLY_INPUTS`] inputs are given, a range is
    /// out of bounds, or an input overlaps the output — callers check first.
    pub fn apply(&self, inputs: &[u64], output: u64, len: usize, f: &mut ApplyFn<'_>) {
        assert!(
            inputs.len() <= MAX_APPLY_INPUTS,
            "sparse apply takes at most {MAX_APPLY_INPUTS} inputs"
        );
        assert!(
            self.in_bounds(output, len) && inputs.iter().all(|&at| self.in_bounds(at, len)),
            "sparse apply out of bounds"
        );
        assert!(
            !inputs.iter().any(|&at| ranges_overlap(at, output, len)),
            "sparse apply input overlaps its output"
        );
        let mut done = 0usize;
        while done < len {
            // The piece ends where the first of the ranges leaves its chunk.
            let room = |at: u64| CHUNK_BYTES - locate(at + done as u64).1;
            let take = inputs
                .iter()
                .fold(room(output), |take, &at| take.min(room(at)))
                .min(len - done);
            self.apply_piece(inputs, output, done, take, f);
            done += take;
        }
    }

    /// Runs `f` on the `take` bytes at offset `done` into every range of an
    /// [`apply`](Self::apply) call, which lie inside one chunk of each.
    fn apply_piece(
        &self,
        inputs: &[u64],
        output: u64,
        done: usize,
        take: usize,
        f: &mut ApplyFn<'_>,
    ) {
        let (out_index, out_within) = locate(output + done as u64);
        let mut order = [0usize; MAX_APPLY_INPUTS];
        for (index, &at) in order.iter_mut().zip(inputs) {
            *index = locate(at + done as u64).0;
        }
        // in-bounds: `apply` asserted inputs.len() ≤ MAX_APPLY_INPUTS.
        let order = &mut order[..inputs.len()];
        order.sort_unstable();
        // Ascending chunk order: the inputs below the output's chunk, the
        // output's, then the inputs above it.
        let below = self.lock_inputs(order.iter().filter(|&&index| index < out_index));
        let mut slot = self.chunk_or_create(out_index).write();
        let above = self.lock_inputs(order.iter().filter(|&&index| index > out_index));
        let chunk = self.materialise(&mut slot);
        // An input inside the output's chunk is carved from the write guard
        // around the output piece: the ranges do not overlap, so it lies
        // wholly before or wholly after it.
        // in-bounds: the output piece ends inside its chunk, out_within +
        // take ≤ CHUNK_BYTES.
        let (before, rest) = chunk.split_at_mut(out_within);
        // in-bounds: as above, rest.len() = CHUNK_BYTES - out_within ≥ take.
        let (out, after) = rest.split_at_mut(take);
        let (before, after) = (&*before, &*after);
        let held = below.iter().chain(above.iter()).flatten();
        let mut ins: [&[u8]; MAX_APPLY_INPUTS] = [&[]; MAX_APPLY_INPUTS];
        for (slice, &at) in ins.iter_mut().zip(inputs) {
            let (index, within) = locate(at + done as u64);
            let (bytes, start): (&[u8], usize) = if index != out_index {
                let guard = held
                    .clone()
                    .find(|(held, _)| *held == index)
                    .and_then(|(_, guard)| guard.as_ref())
                    .and_then(|guard| guard.as_deref());
                (guard.unwrap_or(&ZERO_CHUNK), within)
            } else if within < out_within {
                (before, within)
            } else {
                (after, within - out_within - take)
            };
            // The input piece ends inside its chunk; in the output's chunk
            // it ends by out_within (before) or by CHUNK_BYTES (after,
            // shifted by out_within + take).
            // in-bounds: so start + take ≤ bytes.len().
            *slice = &bytes[start..start + take];
        }
        // in-bounds: `apply` asserted inputs.len() ≤ MAX_APPLY_INPUTS.
        f(&ins[..inputs.len()], out);
    }

    /// Read-locks each distinct chunk of the ascending `indices`, in order.
    fn lock_inputs<'i>(
        &self,
        indices: impl Iterator<Item = &'i usize>,
    ) -> [HeldRead<'_>; MAX_APPLY_INPUTS] {
        let mut held: [HeldRead<'_>; MAX_APPLY_INPUTS] = [const { None }; MAX_APPLY_INPUTS];
        let mut last = None;
        for (slot, &index) in held.iter_mut().zip(indices) {
            if last != Some(index) {
                *slot = Some((index, self.chunk(index).map(|chunk| chunk.read())));
                last = Some(index);
            }
        }
        held
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
        // Never-written inputs of an in-place computation read as zeros and
        // stay unmaterialised; only the output's chunk is created.
        let mut seen = 0;
        mem.apply(&[(1 << 38) + 5, 3 << 20], 1 << 39, 256, &mut |ins, out| {
            assert!(ins.iter().all(|input| input.iter().all(|&b| b == 0)));
            out.fill(1);
            seen += out.len();
        });
        assert_eq!(seen, 256);
        assert_eq!(mem.resident_bytes(), CHUNK_BYTES as u64);
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

    /// `len` bytes of a pattern with period 256, shifted by `seed`.
    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    #[test]
    fn apply_pieces_stay_inside_one_chunk_of_every_range() {
        // Three ranges whose chunk phases all differ: each piece ends where
        // the first of them crosses a chunk boundary.
        let mem = SparseMemory::new(16 * CHUNK_BYTES as u64);
        let len = 2 * CHUNK_BYTES + 300;
        let (x, y, out) = (
            CHUNK_BYTES as u64 - 10,
            5 * CHUNK_BYTES as u64 + 4000,
            10 * CHUNK_BYTES as u64 + 123,
        );
        mem.write(x, &pattern(len, 1));
        mem.write(y, &pattern(len, 2));
        let mut done = 0usize;
        let mut pieces = 0;
        mem.apply(&[x, y], out, len, &mut |ins, result| {
            for at in [x, y, out] {
                let first = (at + done as u64) / CHUNK_BYTES as u64;
                let last = (at + (done + result.len()) as u64 - 1) / CHUNK_BYTES as u64;
                assert_eq!(first, last, "a piece crossed a chunk of the range at {at}");
            }
            for ((r, a), b) in result.iter_mut().zip(ins[0]).zip(ins[1]) {
                *r = a ^ b;
            }
            done += result.len();
            pieces += 1;
        });
        assert_eq!(done, len);
        // x crosses 3 boundaries, y 2 and out 2, all at different offsets.
        assert_eq!(pieces, 8);
        let mut back = vec![0u8; len];
        mem.read(out, &mut back);
        let want: Vec<u8> = pattern(len, 1)
            .iter()
            .zip(pattern(len, 2))
            .map(|(a, b)| a ^ b)
            .collect();
        assert_eq!(back, want);
    }

    #[test]
    fn an_input_in_the_output_chunk_is_carved_from_it() {
        // Both inputs and the output in one chunk, one input on each side of
        // the output: the piece takes the chunk's lock once, for write.
        let mem = SparseMemory::new(4 * CHUNK_BYTES as u64);
        let (below, out, above) = (100u64, 5000u64, 9000u64);
        mem.write(below, &pattern(3000, 7));
        mem.write(above, &pattern(3000, 9));
        mem.apply(&[above, below], out, 3000, &mut |ins, result| {
            assert_eq!(ins[0], &pattern(3000, 9)[..], "input order is the caller's");
            for ((r, a), b) in result.iter_mut().zip(ins[0]).zip(ins[1]) {
                *r = a.wrapping_add(*b);
            }
        });
        let mut back = vec![0u8; 3000];
        mem.read(out, &mut back);
        let want: Vec<u8> = pattern(3000, 9)
            .iter()
            .zip(pattern(3000, 7))
            .map(|(a, b)| a.wrapping_add(b))
            .collect();
        assert_eq!(back, want);
        // The inputs are untouched, and adjacent ranges do not overlap.
        mem.read(below, &mut back);
        assert_eq!(back, pattern(3000, 7));
        mem.apply(&[out + 3000, out - 3000], out, 3000, &mut |_, result| {
            result.fill(0)
        });
        assert_eq!(mem.resident_bytes(), CHUNK_BYTES as u64);
    }

    #[test]
    #[should_panic(expected = "overlaps its output")]
    fn apply_refuses_an_input_overlapping_its_output() {
        let mem = SparseMemory::new(4096);
        mem.apply(&[0, 100], 50, 100, &mut |_, _| {});
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
        // A sub-line write straddling the boundary replaces only its own
        // bytes: 8 on each side, the rest of the line keeps its contents.
        mem.write(offset + 24, &[0u8; 16]);
        let mut back = [0u8; 64];
        mem.read(offset, &mut back);
        for (i, &b) in back.iter().enumerate() {
            let written = (24..40).contains(&i);
            assert_eq!(b, if written { 0 } else { 0xFF }, "byte {i}");
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
    fn threads_applying_over_shared_boundary_chunks_end_with_exact_bytes() {
        // Eight regions of 40 000 bytes back to back, so every chunk holds
        // parts of two or three of them: thread t writes region 2t from the
        // regions just above and just below it, which its neighbours write
        // next to. Each piece locks chunks below, at and above its output;
        // taken in ascending order, the locks cannot deadlock.
        const REGION: usize = 40_000;
        let region = |k: usize| 1000 + (k % 8 * REGION) as u64;
        let mem = SparseMemory::new(8 * CHUNK_BYTES as u64);
        for t in 0..4 {
            mem.write(region(2 * t + 1), &pattern(REGION, t as u8));
        }
        std::thread::scope(|s| {
            for t in 0..4usize {
                let mem = &mem;
                s.spawn(move || {
                    let inputs = [region(2 * t + 1), region(2 * t + 7)];
                    for round in 0..50u8 {
                        mem.apply(&inputs, region(2 * t), REGION, &mut |ins, out| {
                            for ((o, a), b) in out.iter_mut().zip(ins[0]).zip(ins[1]) {
                                *o = a ^ b.rotate_left(1) ^ round;
                            }
                        });
                    }
                });
            }
        });
        for t in 0..4 {
            let (above, below) = (
                pattern(REGION, t as u8),
                pattern(REGION, ((t + 3) % 4) as u8),
            );
            let want: Vec<u8> = above
                .iter()
                .zip(&below)
                .map(|(a, b)| a ^ b.rotate_left(1) ^ 49)
                .collect();
            let mut back = vec![0u8; REGION];
            mem.read(region(2 * t), &mut back);
            assert_eq!(back, want, "region {}", 2 * t);
            mem.read(region(2 * t + 1), &mut back);
            assert_eq!(back, above, "inputs stay as written");
        }
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
                        mem.write(8 * t, &[t as u8 + 1; 8]);
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
        fn prop_apply_matches_a_vec_model(
            inputs in proptest::collection::vec(0u64..4 * CHUNK_BYTES as u64, 0..3),
            output in 0u64..4 * CHUNK_BYTES as u64,
            len in 1usize..CHUNK_BYTES + CHUNK_BYTES / 8,
        ) {
            // Chunks 0-2 hold a pattern, chunk 3 and beyond were never written.
            let capacity = 5 * CHUNK_BYTES as u64;
            let written = pattern(3 * CHUNK_BYTES, 0x3C);
            let mem = SparseMemory::new(capacity);
            mem.write(0, &written);
            let mut model = written;
            model.resize(capacity as usize, 0);
            prop_assume!(mem.in_bounds(output, len));
            prop_assume!(inputs.iter().all(|&at| mem.in_bounds(at, len) && !ranges_overlap(at, output, len)));
            let op = |ins: &[u8]| -> u8 {
                ins.iter().enumerate().fold(0x5A, |acc, (k, &b)| acc ^ b.rotate_left(k as u32 + 1))
            };
            mem.apply(&inputs, output, len, &mut |ins, out| {
                for (j, o) in out.iter_mut().enumerate() {
                    let column: Vec<u8> = ins.iter().map(|input| input[j]).collect();
                    *o = op(&column);
                }
            });
            let result: Vec<u8> = (0..len)
                .map(|j| {
                    let column: Vec<u8> = inputs.iter().map(|&at| model[at as usize + j]).collect();
                    op(&column)
                })
                .collect();
            model[output as usize..output as usize + len].copy_from_slice(&result);
            let mut back = vec![0u8; capacity as usize];
            mem.read(0, &mut back);
            prop_assert!(back == model, "store and model diverged");
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
