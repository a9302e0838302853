//! Cross-crate crash-consistency tests: a STREAM-PMem workload on a pool that
//! physically lives on the modelled CXL expander survives crashes and power
//! cycles the way the paper's premise requires.

use std::sync::Arc;
use streamer_repro::cxl::{FpgaPrototype, Type3Device};
use streamer_repro::cxl_pmem::CxlDeviceBackend;
use streamer_repro::numa::{AffinityPolicy, PinnedPool};
use streamer_repro::pmem::{
    CheckpointCrash, CheckpointPhase, CheckpointRegion, CrashPoint, PersistentArray, PmemPool,
    TypedOid,
};
use streamer_repro::stream::{PmemStream, StreamConfig};

const POOL_BYTES: u64 = 32 * 1024 * 1024;

fn expander() -> Arc<Type3Device> {
    FpgaPrototype::paper_prototype().endpoint()
}

fn pool_on(device: &Arc<Type3Device>) -> PmemPool {
    let backend = CxlDeviceBackend::new(Arc::clone(device), 0, POOL_BYTES).unwrap();
    PmemPool::create_with_backend(Arc::new(backend), "crash-test").unwrap()
}

fn reopen_on(device: &Arc<Type3Device>) -> PmemPool {
    let backend = CxlDeviceBackend::new(Arc::clone(device), 0, POOL_BYTES).unwrap();
    PmemPool::open_with_backend(Arc::new(backend), "crash-test").unwrap()
}

#[test]
fn torn_transaction_on_the_expander_rolls_back_across_reopen() {
    let device = expander();
    let oid = {
        let pool = pool_on(&device);
        let array = PersistentArray::<u64>::allocate(&pool, 1024).unwrap();
        array.store_slice(0, &[1u64; 1024]).unwrap();
        array.persist_all().unwrap();
        pool.set_root(array.typed_oid().oid(), 1024).unwrap();
        pool.set_crash_point(Some(CrashPoint::BeforeCommit));
        assert!(array.store_slice_tx(0, &[2u64; 1024]).is_err());
        array.typed_oid()
    };
    let pool = reopen_on(&device);
    let array = PersistentArray::<u64>::from_oid(&pool, oid);
    let values = array.to_vec().unwrap();
    assert_eq!(values.len(), 1024);
    assert!(
        values.iter().all(|&v| v == 1),
        "torn checkpoint must roll back"
    );
}

#[test]
fn persistent_power_cycle_keeps_pool_contents_volatile_cycle_loses_them() {
    let device = expander();
    {
        let pool = pool_on(&device);
        let array = PersistentArray::<f64>::allocate(&pool, 256).unwrap();
        array.fill(7.5).unwrap();
        array.persist_all().unwrap();
        pool.set_root(array.typed_oid().oid(), 256).unwrap();
    }
    // Battery-backed expander: contents survive, and the pool reopens over the
    // bulk path, which needs no HDM decoder reprogrammed.
    device.power_cycle(true);
    {
        let pool = reopen_on(&device);
        let (root, len) = pool.root().unwrap();
        let array = PersistentArray::<f64>::from_oid(&pool, TypedOid::new(root, len));
        assert_eq!(array.get(255).unwrap(), 7.5);
    }
    // Without battery backing the expander loses its contents and the pool
    // header no longer validates — the failure mode the paper's argument
    // (battery the device once, off-node) is designed to avoid.
    device.power_cycle(false);
    let backend = CxlDeviceBackend::new(Arc::clone(&device), 0, POOL_BYTES).unwrap();
    assert!(PmemPool::open_with_backend(Arc::new(backend), "crash-test").is_err());
}

#[test]
fn checkpoint_region_on_the_expander_survives_torn_commit_and_power_cycle() {
    let device = expander();
    let data: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
    {
        let pool = pool_on(&device);
        let mut region = CheckpointRegion::format(&pool, data.len() as u64, 1024).unwrap();
        pool.set_root(region.oid(), data.len() as u64).unwrap();
        region.checkpoint(&data).unwrap();
        // A torn header write on the next slot must be harmless.
        region.set_crash(Some(CheckpointCrash {
            phase: CheckpointPhase::HeaderWrite,
            point: CrashPoint::BeforeCommit,
        }));
        let mut mutated = data.clone();
        mutated[0] ^= 0xFF;
        assert!(region.checkpoint(&mutated).unwrap_err().is_injected_crash());
    }
    // Battery-backed power cycle: the expander keeps its bytes; the reopened
    // region restores epoch 1 exactly, never the torn epoch-2 attempt.
    device.power_cycle(true);
    let pool = reopen_on(&device);
    let region = CheckpointRegion::open_root(&pool).unwrap();
    assert_eq!(region.committed_epoch(), 1);
    let mut out = vec![0u8; data.len()];
    region.restore(&mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn stream_pmem_on_the_expander_validates_and_survives_reattach() {
    let device = expander();
    let config = StreamConfig::small(20_000);
    let machine = streamer_repro::memsim::machines::sapphire_rapids_cxl_machine();
    let topo = machine.topology();
    let placement = AffinityPolicy::close().place(topo, 4).unwrap();
    let workers = PinnedPool::new(topo, &placement);

    let root = {
        let pool = pool_on(&device);
        let mut stream = PmemStream::initiate(&pool, config).unwrap();
        stream.run(&workers).unwrap();
        assert!(stream.validate().unwrap() < 1e-12);
        stream.root()
    };
    // Reattach after a (persistent) power cycle and validate again: the arrays
    // kept the exact post-benchmark values.
    device.power_cycle(true);
    let pool = reopen_on(&device);
    let stream = PmemStream::reattach(&pool, config, root);
    assert!(stream.validate().unwrap() < 1e-12);
}
