//! A `pmem` pool backend that stores its bytes on a CXL Type-3 device.
//!
//! This is the configuration the paper actually evaluates: the `pmemobj` pool
//! lives on `/mnt/pmem2`, which is a DAX filesystem over the CXL expander's
//! memory. Here the pool bytes go straight to the modelled device
//! ([`cxl::Type3Device::write_bulk`]), so the whole PMDK stack — header,
//! allocator, undo log, arrays — genuinely resides "on" the expander, and
//! device statistics reflect every access the pool makes. Kernels computing
//! on pool arrays run on the device's own bytes
//! ([`cxl::Type3Device::apply`]), as loads and stores through a DAX mapping
//! do.

use cxl::sparse::{ApplyFn, MAX_APPLY_INPUTS};
use cxl::Type3Device;
use pmem::backend::{check_apply, check_bounds};
use pmem::{PmemError, PoolBackend};
use std::sync::Arc;

/// A pool backend mapping a pool onto a region of a CXL Type-3 device. The
/// device is persistence-capable: off-node and battery-backed, the paper's
/// §1.4 argument.
pub struct CxlDeviceBackend {
    device: Arc<Type3Device>,
    dpa_base: u64,
    len: u64,
}

impl CxlDeviceBackend {
    /// Creates a backend over `[dpa_base, dpa_base + len)` of `device`.
    pub fn new(device: Arc<Type3Device>, dpa_base: u64, len: u64) -> Result<Self, PmemError> {
        let end = dpa_base.checked_add(len).ok_or(PmemError::SizeOverflow)?;
        if end > device.capacity_bytes() {
            return Err(PmemError::OutOfBounds {
                offset: dpa_base,
                len,
                pool_size: device.capacity_bytes(),
            });
        }
        Ok(CxlDeviceBackend {
            device,
            dpa_base,
            len,
        })
    }

    /// The underlying device handle.
    pub fn device(&self) -> Arc<Type3Device> {
        Arc::clone(&self.device)
    }
}

impl PoolBackend for CxlDeviceBackend {
    fn capacity(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), PmemError> {
        check_bounds(self.len, offset, buf.len())?;
        Ok(self.device.read_bulk(self.dpa_base + offset, buf)?)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), PmemError> {
        check_bounds(self.len, offset, data.len())?;
        Ok(self.device.write_bulk(self.dpa_base + offset, data)?)
    }

    fn apply_at(
        &self,
        inputs: &[u64],
        output: u64,
        len: usize,
        f: &mut ApplyFn<'_>,
    ) -> Result<(), PmemError> {
        check_apply(self.len, inputs, output, len)?;
        let mut dpas = [0u64; MAX_APPLY_INPUTS];
        for (dpa, &offset) in dpas.iter_mut().zip(inputs) {
            *dpa = self.dpa_base + offset;
        }
        // in-bounds: check_apply proved inputs.len() ≤ MAX_APPLY_INPUTS.
        let dpas = &dpas[..inputs.len()];
        Ok(self.device.apply(dpas, self.dpa_base + output, len, f)?)
    }

    fn persist(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        check_bounds(self.len, offset, len as usize)?;
        // Global Persistent Flush: pushes accepted writes into the persistence
        // domain of the (battery-backed) expander.
        self.device.global_persistent_flush();
        Ok(())
    }

    fn is_persistent(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!(
            "cxl[{} dpa {:#x}+{} bytes, battery-backed]",
            self.device.name(),
            self.dpa_base,
            self.len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl::config::LinkConfig;
    use pmem::{PersistentArray, PmemPool};

    const MIB: u64 = 1024 * 1024;

    fn device(capacity: u64) -> Arc<Type3Device> {
        Arc::new(Type3Device::new(
            "test-expander",
            capacity,
            LinkConfig::gen5_x16(),
        ))
    }

    #[test]
    fn backend_bounds_are_the_region_not_the_device() {
        let dev = device(64 * MIB);
        let backend = CxlDeviceBackend::new(Arc::clone(&dev), 8 * MIB, 4 * MIB).unwrap();
        assert_eq!(backend.capacity(), 4 * MIB);
        assert!(backend.write_at(4 * MIB - 1, &[0, 0]).is_err());
        backend.write_at(0, b"on the expander").unwrap();
        // The bytes landed at dpa_base + 0 on the device.
        let mut raw = [0u8; 15];
        dev.read_bulk(8 * MIB, &mut raw).unwrap();
        assert_eq!(&raw, b"on the expander");
    }

    #[test]
    fn region_must_fit_the_device() {
        let dev = device(MIB);
        assert!(CxlDeviceBackend::new(dev, 0, 2 * MIB).is_err());
    }

    #[test]
    fn wrapping_offsets_are_refused_and_leave_the_neighbour_alone() {
        let dev = device(MIB);
        let neighbour = [0xA5u8; 4096];
        dev.write_bulk(0, &neighbour).unwrap();
        let backend = CxlDeviceBackend::new(Arc::clone(&dev), 4096, 4096).unwrap();
        // u64::MAX - 7 + 8 wraps to 0: without a checked add the window's
        // base would turn it into the last 8 bytes of the neighbour below.
        let mut buf = [0u8; 8];
        assert!(matches!(
            backend.read_at(u64::MAX - 7, &mut buf),
            Err(PmemError::SizeOverflow)
        ));
        assert_eq!(buf, [0u8; 8]);
        assert!(matches!(
            backend.write_at(u64::MAX - 7, &[0u8; 8]),
            Err(PmemError::SizeOverflow)
        ));
        assert!(matches!(
            backend.persist(u64::MAX - 7, 8),
            Err(PmemError::SizeOverflow)
        ));
        let mut after = [0u8; 4096];
        dev.read_bulk(0, &mut after).unwrap();
        assert_eq!(after, neighbour, "the neighbouring window changed");
        // A base that wraps past the device end is refused too.
        assert!(matches!(
            CxlDeviceBackend::new(dev, u64::MAX - 10, 100),
            Err(PmemError::SizeOverflow)
        ));
    }

    #[test]
    fn persist_rings_the_gpf_doorbell() {
        let dev = device(16 * MIB);
        let backend = CxlDeviceBackend::new(Arc::clone(&dev), 0, 16 * MIB).unwrap();
        backend.persist(0, 4096).unwrap();
        assert!(backend.persist(16 * MIB - 10, 100).is_err());
        assert_eq!(dev.stats().gpf_flushes, 1);
        assert!(backend.is_persistent());
    }

    #[test]
    fn a_full_pmdk_pool_runs_on_the_expander() {
        let dev = device(64 * MIB);
        let backend = CxlDeviceBackend::new(Arc::clone(&dev), 0, 32 * MIB).unwrap();
        let pool = PmemPool::create_with_backend(Arc::new(backend), "stream").unwrap();
        let array = PersistentArray::<f64>::allocate(&pool, 10_000).unwrap();
        array.fill(1.5).unwrap();
        array.persist_all().unwrap();
        assert_eq!(array.get(9_999).unwrap(), 1.5);
        // Every pool byte went through the CXL device.
        let stats = dev.stats();
        assert!(stats.bytes_written >= 10_000 * 8);
        assert!(stats.gpf_flushes > 0);
        assert!(pool.describe().contains("cxl["));

        // A kernel over pool arrays runs on the device's bytes: the device
        // counts one read per input and one write, and nothing else.
        let doubled = PersistentArray::<f64>::allocate(&pool, 10_000).unwrap();
        let before = dev.stats();
        doubled
            .compute_from(0, 10_000, &[&array], &mut |ins, out| {
                for (o, x) in out.chunks_exact_mut(8).zip(ins[0].chunks_exact(8)) {
                    let x = f64::from_le_bytes(x.try_into().unwrap());
                    o.copy_from_slice(&(2.0 * x).to_le_bytes());
                }
            })
            .unwrap();
        let after = dev.stats();
        assert_eq!(after.bytes_read - before.bytes_read, 10_000 * 8);
        assert_eq!(after.bytes_written - before.bytes_written, 10_000 * 8);
        assert_eq!(doubled.to_vec().unwrap(), vec![3.0; 10_000]);
        assert!(matches!(
            doubled.compute_from(0, 10_000, &[&doubled], &mut |_, _| {}),
            Err(PmemError::Apply(_))
        ));
    }

    #[test]
    fn pool_on_expander_survives_reopen_and_rolls_back_crashes() {
        let dev = device(64 * MIB);
        let mk_backend = || CxlDeviceBackend::new(Arc::clone(&dev), 0, 32 * MIB).unwrap();
        let oid = {
            let crash = pmem::Crash::new();
            let backend = crash.wrap(Arc::new(mk_backend()));
            let pool = PmemPool::create_with_backend(backend, "stream").unwrap();
            let array = PersistentArray::<u64>::allocate(&pool, 128).unwrap();
            array.store_slice(0, &[11u64; 128]).unwrap();
            array.persist_all().unwrap();
            let oid = array.typed_oid();
            pool.set_root(oid.oid(), oid.len()).unwrap();
            // The host dies on the clear of the store's undo log, its ninth
            // backend call.
            crash.arm(8, false);
            assert!(array.store_slice_tx(0, &[99u64; 128]).is_err());
            oid
        };
        // "Reboot": reopen a pool over the same device region.
        let pool = PmemPool::open_with_backend(Arc::new(mk_backend()), "stream").unwrap();
        let array = PersistentArray::<u64>::from_oid(&pool, oid);
        let mut values = vec![0u64; 128];
        array.load_slice(0, &mut values).unwrap();
        assert!(
            values.iter().all(|&v| v == 11),
            "crash must roll back to 11s"
        );
    }
}
