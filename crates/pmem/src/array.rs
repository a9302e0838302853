//! Typed persistent arrays — the STREAM-PMem `a`, `b`, `c` vectors.
//!
//! Listing 2 of the paper replaces STREAM's three static arrays with
//! `POBJ_ALLOC`ed arrays of `double`. [`PersistentArray`] provides the same
//! facility: an array of a fixed-width scalar type living entirely inside a
//! pool, with element accessors, bulk slice transfers and explicit persist
//! calls.
//!
//! Bulk transfers never allocate. Typed slices are staged through a fixed
//! 4 KiB stack block and decoded block by block. A kernel that computes one
//! array from others, as STREAM-PMem's do, runs on the arrays' stored
//! little-endian bytes in place ([`PersistentArray::compute_from`]): on a
//! pool over the expander or over memory, the bytes it reads and writes are
//! the backend's own, with no copy in between.

use crate::error::PmemError;
use crate::oid::TypedOid;
use crate::pool::PmemPool;
use crate::Result;
use cxl::sparse::{ApplyFn, MAX_APPLY_INPUTS};

/// Bytes of the stack block typed slice transfers stage through.
const STAGE_BYTES: usize = 4096;

/// Scalar element types that can live in a persistent array.
///
/// The trait is deliberately small: fixed size (a power of two, at most
/// 4096 bytes, one staging block), little-endian byte conversion.
pub trait PmemScalar: Copy + Default + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Size of the scalar in bytes.
    const SIZE: usize;
    /// Encodes the value into `out` (little endian).
    fn write_le(&self, out: &mut [u8]);
    /// Decodes a value from `bytes` (little endian).
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_pmem_scalar {
    ($($ty:ty),*) => {
        $(
            impl PmemScalar for $ty {
                const SIZE: usize = std::mem::size_of::<$ty>();
                fn write_le(&self, out: &mut [u8]) {
                    out[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
                }
                fn read_le(bytes: &[u8]) -> Self {
                    let mut buf = [0u8; std::mem::size_of::<$ty>()];
                    buf.copy_from_slice(&bytes[..Self::SIZE]);
                    <$ty>::from_le_bytes(buf)
                }
            }
        )*
    };
}

impl_pmem_scalar!(f64, f32, u64, u32, i64, i32);

/// A typed array allocated inside a pool.
pub struct PersistentArray<'p, T: PmemScalar> {
    pool: &'p PmemPool,
    oid: TypedOid<T>,
}

impl<'p, T: PmemScalar> PersistentArray<'p, T> {
    /// Allocates an array of `len` elements (`POBJ_ALLOC` equivalent). The
    /// contents start zeroed (all-default).
    pub fn allocate(pool: &'p PmemPool, len: u64) -> Result<Self> {
        let bytes = len
            .checked_mul(T::SIZE as u64)
            .ok_or(PmemError::SizeOverflow)?;
        let oid = pool.alloc_bytes(bytes.max(T::SIZE as u64))?;
        Ok(PersistentArray {
            pool,
            oid: TypedOid::new(oid, len),
        })
    }

    /// Re-attaches to an existing allocation (after reopening a pool).
    pub fn from_oid(pool: &'p PmemPool, oid: TypedOid<T>) -> Self {
        PersistentArray { pool, oid }
    }

    /// The typed oid, to be stored in the pool root for later reattachment.
    pub fn typed_oid(&self) -> TypedOid<T> {
        self.oid
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.oid.len()
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.oid.is_empty()
    }

    fn offset_of(&self, index: u64) -> Result<u64> {
        self.oid
            .element_offset(index, T::SIZE as u64)
            .ok_or(PmemError::OutOfBounds {
                offset: index,
                len: T::SIZE as u64,
                pool_size: self.len(),
            })
    }

    /// Reads element `index`.
    pub fn get(&self, index: u64) -> Result<T> {
        let offset = self.offset_of(index)?;
        let mut buf = vec![0u8; T::SIZE];
        self.pool.read(offset, &mut buf)?;
        Ok(T::read_le(&buf))
    }

    /// Writes element `index` (non-transactional; call [`persist`](Self::persist)
    /// or wrap in a pool transaction for durability/atomicity).
    pub fn set(&self, index: u64, value: T) -> Result<()> {
        let offset = self.offset_of(index)?;
        let mut buf = vec![0u8; T::SIZE];
        value.write_le(&mut buf);
        self.pool.write(offset, &buf)
    }

    /// Fills the whole array with `value`.
    pub fn fill(&self, value: T) -> Result<()> {
        // Chunked fill: keeps buffers modest for very large arrays.
        const CHUNK_ELEMS: u64 = 64 * 1024;
        let mut template = vec![0u8; (CHUNK_ELEMS as usize) * T::SIZE];
        for i in 0..CHUNK_ELEMS as usize {
            value.write_le(&mut template[i * T::SIZE..]);
        }
        let mut written = 0u64;
        while written < self.len() {
            let n = CHUNK_ELEMS.min(self.len() - written);
            let offset = self.offset_of(written)?;
            self.pool
                .write(offset, &template[..(n as usize) * T::SIZE])?;
            written += n;
        }
        Ok(())
    }

    /// Byte offset of element `start`, after checking that the `count`
    /// elements from `start` lie inside the array (`count > 0`).
    fn range_offset(&self, start: u64, count: u64) -> Result<u64> {
        let last = start
            .checked_add(count - 1)
            .ok_or(PmemError::SizeOverflow)?;
        self.offset_of(last)?; // bounds check
        self.offset_of(start)
    }

    /// Reads elements `[start, start + out.len())` into `out`, staged
    /// through a stack block.
    pub fn load_slice(&self, start: u64, out: &mut [T]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        let mut offset = self.range_offset(start, out.len() as u64)?;
        let mut stage = [0u8; STAGE_BYTES];
        for block in out.chunks_mut(STAGE_BYTES / T::SIZE) {
            let bytes = &mut stage[..block.len() * T::SIZE];
            self.pool.read(offset, bytes)?;
            for (slot, encoded) in block.iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
                *slot = T::read_le(encoded);
            }
            offset += bytes.len() as u64;
        }
        Ok(())
    }

    /// Reads the whole array into a freshly allocated vector.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut out = vec![T::default(); self.len() as usize];
        self.load_slice(0, &mut out)?;
        Ok(out)
    }

    /// Writes `values` starting at element `start`, staged through a stack
    /// block.
    pub fn store_slice(&self, start: u64, values: &[T]) -> Result<()> {
        if values.is_empty() {
            return Ok(());
        }
        let mut offset = self.range_offset(start, values.len() as u64)?;
        let mut stage = [0u8; STAGE_BYTES];
        for block in values.chunks(STAGE_BYTES / T::SIZE) {
            let bytes = &mut stage[..block.len() * T::SIZE];
            for (value, encoded) in block.iter().zip(bytes.chunks_exact_mut(T::SIZE)) {
                value.write_le(encoded);
            }
            self.pool.write(offset, bytes)?;
            offset += bytes.len() as u64;
        }
        Ok(())
    }

    /// Computes the elements `[start, start + count)` of this array in place
    /// from the same elements of each of `inputs` (at most two arrays of the
    /// same pool, other than this one): `f` reads the inputs' stored
    /// little-endian bytes, in the order given, and writes this array's.
    ///
    /// The range arrives in pieces that hold whole elements, at the same
    /// element offset into every array (see
    /// [`PoolBackend::apply_at`](crate::PoolBackend::apply_at)); `f` must
    /// write every byte of each output piece. Like
    /// [`store_slice`](Self::store_slice) the write is not persisted. A range
    /// running past any of the arrays is refused before anything moves.
    pub fn compute_from(
        &self,
        start: u64,
        count: u64,
        inputs: &[&PersistentArray<'p, T>],
        f: &mut ApplyFn<'_>,
    ) -> Result<()> {
        if count == 0 {
            return Ok(());
        }
        let mut offsets = [0u64; MAX_APPLY_INPUTS];
        if inputs.len() > offsets.len() {
            return Err(PmemError::Apply("more than two inputs"));
        }
        for (offset, input) in offsets.iter_mut().zip(inputs) {
            if !std::ptr::eq(input.pool, self.pool) {
                return Err(PmemError::InvalidOid);
            }
            *offset = input.element_aligned(input.range_offset(start, count)?)?;
        }
        let output = self.element_aligned(self.range_offset(start, count)?)?;
        let len = count
            .checked_mul(T::SIZE as u64)
            .and_then(|len| usize::try_from(len).ok())
            .ok_or(PmemError::SizeOverflow)?;
        // in-bounds: inputs.len() ≤ MAX_APPLY_INPUTS, checked above.
        self.pool.apply(&offsets[..inputs.len()], output, len, f)
    }

    /// `offset`, if it is a multiple of the element size, which makes every
    /// piece of an in-place computation hold whole elements.
    fn element_aligned(&self, offset: u64) -> Result<u64> {
        if offset.is_multiple_of(T::SIZE as u64) {
            Ok(offset)
        } else {
            Err(PmemError::InvalidOid)
        }
    }

    /// Byte offset and byte length of the element range `[start, start+len)`,
    /// which must lie inside the array (`len > 0`).
    fn byte_range(&self, start: u64, len: u64) -> Result<(u64, u64)> {
        let offset = self.range_offset(start, len)?;
        let bytes = len
            .checked_mul(T::SIZE as u64)
            .ok_or(PmemError::SizeOverflow)?;
        Ok((offset, bytes))
    }

    /// Makes the element range `[start, start+len)` durable.
    pub fn persist(&self, start: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let (offset, bytes) = self.byte_range(start, len)?;
        self.pool.persist(offset, bytes)
    }

    /// Flushes the element range `[start, start+len)` without a fence
    /// (`pmem_flush`). Pair with [`PmemPool::drain`] after batching all
    /// chunks of an update — one fence then covers every flushed range.
    pub fn flush(&self, start: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let (offset, bytes) = self.byte_range(start, len)?;
        self.pool.flush(offset, bytes)
    }

    /// Makes the whole array durable.
    pub fn persist_all(&self) -> Result<()> {
        self.persist(0, self.len())
    }

    /// Transactionally updates the element range `[start, start + values.len())`:
    /// either every element is updated and durable, or none are.
    pub fn store_slice_tx(&self, start: u64, values: &[T]) -> Result<()> {
        if values.is_empty() {
            return Ok(());
        }
        let offset = self.range_offset(start, values.len() as u64)?;
        let mut buf = vec![0u8; values.len() * T::SIZE];
        for (i, value) in values.iter().enumerate() {
            value.write_le(&mut buf[i * T::SIZE..]);
        }
        self.pool.run_tx(|tx| tx.write(offset, &buf))
    }

    /// Frees the array's allocation. Consumes the handle.
    pub fn free(self) -> Result<()> {
        self.pool.free(self.oid.oid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Crash, SharedBackend, VolatileBackend};
    use crate::oid::PmemOid;
    use proptest::prelude::*;
    use std::sync::Arc;

    const POOL_SIZE: u64 = 4 * 1024 * 1024;

    fn pool() -> PmemPool {
        PmemPool::create_volatile("array", POOL_SIZE).unwrap()
    }

    #[test]
    fn allocate_zeroed_and_set_get() {
        let pool = pool();
        let array = PersistentArray::<f64>::allocate(&pool, 1000).unwrap();
        assert_eq!(array.len(), 1000);
        assert_eq!(array.get(0).unwrap(), 0.0);
        array.set(500, 3.5).unwrap();
        assert_eq!(array.get(500).unwrap(), 3.5);
        assert!(array.get(1000).is_err());
        assert!(array.set(1000, 1.0).is_err());
    }

    #[test]
    fn fill_sets_every_element() {
        let pool = pool();
        let array = PersistentArray::<f64>::allocate(&pool, 10_000).unwrap();
        array.fill(2.0).unwrap();
        assert_eq!(array.get(0).unwrap(), 2.0);
        assert_eq!(array.get(9_999).unwrap(), 2.0);
        assert_eq!(array.get(5_000).unwrap(), 2.0);
    }

    #[test]
    fn slice_round_trip() {
        let pool = pool();
        let array = PersistentArray::<u64>::allocate(&pool, 256).unwrap();
        let values: Vec<u64> = (0..100).collect();
        array.store_slice(50, &values).unwrap();
        let mut back = vec![0u64; 100];
        array.load_slice(50, &mut back).unwrap();
        assert_eq!(back, values);
        let all = array.to_vec().unwrap();
        assert_eq!(all.len(), 256);
        assert_eq!(&all[50..150], &values[..]);
        // Out-of-range slices are rejected.
        assert!(array.store_slice(200, &values).is_err());
        let mut too_big = vec![0u64; 300];
        assert!(array.load_slice(0, &mut too_big).is_err());
        // Empty slices are no-ops.
        array.store_slice(0, &[]).unwrap();
        array.load_slice(0, &mut []).unwrap();
    }

    #[test]
    fn slices_spanning_many_stage_blocks_round_trip() {
        let pool = pool();
        let len = 3 * STAGE_BYTES / 8 + 5;
        let array = PersistentArray::<u64>::allocate(&pool, len as u64 + 7).unwrap();
        let values: Vec<u64> = (0..len as u64).map(|i| i * 0x9E37_79B9).collect();
        array.store_slice(7, &values).unwrap();
        let mut back = vec![0u64; len];
        array.load_slice(7, &mut back).unwrap();
        assert_eq!(back, values);
        let before = pool.persist_stats();
        array.load_slice(7, &mut back).unwrap();
        assert_eq!(pool.persist_stats(), before, "loads never flush");
    }

    #[test]
    fn le_bytes_are_the_stored_encoding() {
        let pool = pool();
        let x = PersistentArray::<f64>::allocate(&pool, 64).unwrap();
        let y = PersistentArray::<f64>::allocate(&pool, 64).unwrap();
        let out = PersistentArray::<f64>::allocate(&pool, 64).unwrap();
        let values: Vec<f64> = (0..64).map(|i| i as f64 * 1.5).collect();
        x.store_slice(0, &values).unwrap();
        y.fill(-2.0).unwrap();
        // `f` reads the inputs' stored encoding in the order given, and what
        // it writes lands as typed values.
        let mut add = |ins: &[&[u8]], result: &mut [u8]| {
            let [a, b] = ins else { panic!("two inputs") };
            let lanes = a.chunks_exact(8).zip(b.chunks_exact(8));
            for (r, (a, b)) in result.chunks_exact_mut(8).zip(lanes) {
                (f64::read_le(a) - 4.0 * f64::read_le(b)).write_le(r);
            }
        };
        out.compute_from(4, 10, &[&x, &y], &mut add).unwrap();
        for (i, value) in out.to_vec().unwrap().into_iter().enumerate() {
            let want = if (4..14).contains(&i) {
                values[i] + 8.0
            } else {
                0.0
            };
            assert_eq!(value, want, "element {i}");
        }
        // The input order is the caller's.
        out.compute_from(0, 1, &[&y, &x], &mut add).unwrap();
        assert_eq!(out.get(0).unwrap(), -2.0);

        // A range past any of the arrays, the output as its own input, a
        // third input and another pool's array are refused, and move nothing.
        let short = PersistentArray::<f64>::allocate(&pool, 8).unwrap();
        let other_pool = self::pool();
        let foreign = PersistentArray::<f64>::allocate(&other_pool, 64).unwrap();
        let before = out.to_vec().unwrap();
        let mut calls = 0;
        let mut count = |_: &[&[u8]], _: &mut [u8]| calls += 1;
        for (refused, what) in [
            (
                out.compute_from(60, 5, &[&x], &mut count),
                "past the output",
            ),
            (
                out.compute_from(6, 4, &[&short], &mut count),
                "past an input",
            ),
            (out.compute_from(u64::MAX, 2, &[&x], &mut count), "wrapping"),
        ] {
            assert!(
                matches!(
                    refused,
                    Err(PmemError::OutOfBounds { .. } | PmemError::SizeOverflow)
                ),
                "{what}: {refused:?}"
            );
        }
        assert!(matches!(
            out.compute_from(0, 4, &[&out], &mut count),
            Err(PmemError::Apply(_))
        ));
        assert!(matches!(
            out.compute_from(0, 4, &[&x, &y, &x], &mut count),
            Err(PmemError::Apply(_))
        ));
        assert!(matches!(
            out.compute_from(0, 4, &[&foreign], &mut count),
            Err(PmemError::InvalidOid)
        ));
        // An array whose oid is not element-aligned would split elements
        // across pieces.
        let shifted = PmemOid::new(pool.uuid(), x.typed_oid().oid().offset + 4);
        let misaligned = PersistentArray::<f64>::from_oid(&pool, TypedOid::new(shifted, 8));
        for refused in [
            out.compute_from(0, 4, &[&misaligned], &mut count),
            misaligned.compute_from(0, 4, &[&y], &mut count),
        ] {
            assert!(matches!(refused, Err(PmemError::InvalidOid)), "{refused:?}");
        }
        out.compute_from(64, 0, &[&x], &mut count).unwrap();
        assert_eq!(calls, 0);
        assert_eq!(out.to_vec().unwrap(), before);
    }

    #[test]
    fn persist_ranges_and_stats() {
        let pool = pool();
        let array = PersistentArray::<f64>::allocate(&pool, 128).unwrap();
        array.store_slice(0, &[1.0; 128]).unwrap();
        let before = pool.persist_stats();
        array.persist(0, 64).unwrap();
        array.persist_all().unwrap();
        array.persist(0, 0).unwrap();
        let after = pool.persist_stats();
        assert!(after.bytes_persisted >= before.bytes_persisted + 64 * 8 + 128 * 8);

        // Ranges are bounded by their last element, like `store_slice`, and
        // a refused call flushes nothing.
        let small = PersistentArray::<f64>::allocate(&pool, 4).unwrap();
        let before = pool.persist_stats();
        for refused in [small.persist(3, 2), small.store_slice(3, &[1.0, 2.0])] {
            assert!(
                matches!(
                    refused,
                    Err(PmemError::OutOfBounds {
                        offset: 4,
                        len: 8,
                        pool_size: 4
                    })
                ),
                "{refused:?}"
            );
        }
        for refused in [
            small.flush(2, 1000),
            small.flush(0, u64::MAX),
            small.persist(1, u64::MAX / 4),
        ] {
            assert!(
                matches!(refused, Err(PmemError::OutOfBounds { .. })),
                "{refused:?}"
            );
        }
        assert_eq!(pool.persist_stats(), before);
    }

    #[test]
    fn reattach_after_reopen() {
        let backend = VolatileBackend::new_persistent(POOL_SIZE);
        let shared: SharedBackend = Arc::new(backend.clone());
        let pool1 = PmemPool::create_with_backend(shared, "array").unwrap();
        let oid = {
            let array = PersistentArray::<f64>::allocate(&pool1, 64).unwrap();
            array.store_slice(0, &[42.0; 64]).unwrap();
            array.persist_all().unwrap();
            array.typed_oid()
        };
        pool1.set_root(oid.oid(), oid.len()).unwrap();
        drop(pool1);

        let shared2: SharedBackend = Arc::new(backend);
        let pool2 = PmemPool::open_with_backend(shared2, "array").unwrap();
        let (root, len) = pool2.root().unwrap();
        let array = PersistentArray::<f64>::from_oid(&pool2, TypedOid::new(root, len));
        assert_eq!(array.get(63).unwrap(), 42.0);
    }

    #[test]
    fn transactional_store_rolls_back_on_crash() {
        let backend = VolatileBackend::new_persistent(POOL_SIZE);
        let crash = Crash::new();
        let pool1 =
            PmemPool::create_with_backend(crash.wrap(Arc::new(backend.clone())), "array").unwrap();
        let array = PersistentArray::<u64>::allocate(&pool1, 64).unwrap();
        array.store_slice(0, &[7u64; 64]).unwrap();
        array.persist_all().unwrap();
        let oid = array.typed_oid();
        pool1.set_root(oid.oid(), oid.len()).unwrap();

        // The host dies on the clear of the undo log, the store's ninth of
        // ten backend calls.
        crash.arm(8, false);
        assert!(array.store_slice_tx(0, &[9u64; 64]).is_err());
        drop(pool1);

        let shared2: SharedBackend = Arc::new(backend);
        let pool2 = PmemPool::open_with_backend(shared2, "array").unwrap();
        let (root, len) = pool2.root().unwrap();
        let array = PersistentArray::<u64>::from_oid(&pool2, TypedOid::new(root, len));
        let mut values = vec![0u64; 64];
        array.load_slice(0, &mut values).unwrap();
        assert!(values.iter().all(|&v| v == 7), "rollback must restore 7s");
        // A committed transaction sticks.
        array.store_slice_tx(0, &[9u64; 64]).unwrap();
        array.load_slice(0, &mut values).unwrap();
        assert!(values.iter().all(|&v| v == 9));
    }

    #[test]
    fn free_releases_heap_space() {
        let pool = pool();
        let before = pool.alloc_stats().unwrap();
        let array = PersistentArray::<f64>::allocate(&pool, 1024).unwrap();
        assert!(pool.alloc_stats().unwrap().allocated > before.allocated);
        array.free().unwrap();
        assert_eq!(pool.alloc_stats().unwrap().allocated, before.allocated);
    }

    #[test]
    fn different_scalar_types_coexist() {
        let pool = pool();
        let doubles = PersistentArray::<f64>::allocate(&pool, 16).unwrap();
        let ints = PersistentArray::<i32>::allocate(&pool, 16).unwrap();
        doubles.set(0, 1.5).unwrap();
        ints.set(0, -7).unwrap();
        assert_eq!(doubles.get(0).unwrap(), 1.5);
        assert_eq!(ints.get(0).unwrap(), -7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_store_load_round_trip(values in proptest::collection::vec(any::<f64>(), 1..200),
                                      start in 0u64..100) {
            let pool = pool();
            let array = PersistentArray::<f64>::allocate(&pool, 400).unwrap();
            array.store_slice(start, &values).unwrap();
            let mut back = vec![0.0f64; values.len()];
            array.load_slice(start, &mut back).unwrap();
            for (a, b) in values.iter().zip(back.iter()) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        }

        #[test]
        fn prop_scalar_encoding_round_trips(v in any::<f64>(), w in any::<u64>(), x in any::<i32>()) {
            let mut buf = [0u8; 8];
            v.write_le(&mut buf);
            prop_assert_eq!(f64::read_le(&buf).to_bits(), v.to_bits());
            w.write_le(&mut buf);
            prop_assert_eq!(u64::read_le(&buf), w);
            let mut buf4 = [0u8; 4];
            x.write_le(&mut buf4);
            prop_assert_eq!(i32::read_le(&buf4), x);
        }
    }
}
