//! Quickstart: provision a persistent pool on the CXL expander, store data
//! transactionally, and ask the model what STREAM would achieve there.
//!
//! Run with: `cargo run --example quickstart`

use streamer_repro::pmem::PersistentArray;
use streamer_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Bring up the paper's Setup #1: dual Sapphire Rapids + a CXL-attached
    //    DDR4-1333 expander on an Agilex-7 FPGA, exposed as NUMA node 2.
    //    The card stores the bytes; the simulated machine says how fast it is.
    let runtime = RuntimeBuilder::setup1().build();
    let machine = runtime.machine();
    println!("machine: {}", runtime.topology().name);
    println!(
        "CXL endpoint: {} ({:.1} GB/s effective, {:.0} ns fabric latency)",
        runtime.fpga().unwrap().name(),
        machine.path_ceiling_gbs(0, 2, 1, 1)?,
        machine.path(0, 2)?.added_latency_ns(),
    );

    // 2. Provision a PMDK-style pool on the expander (the paper's /mnt/pmem2).
    let pool = runtime.provision_pool(&TierPolicy::CxlExpander, "quickstart", 32 * 1024 * 1024)?;
    println!("pool provisioned on {} ({})", pool.mount(), pool.describe());

    // 3. Allocate a persistent array and update it transactionally — either
    //    the whole update lands or none of it does, exactly like libpmemobj.
    let array = PersistentArray::<f64>::allocate(pool.pool(), 100_000)?;
    array.fill(1.0)?;
    array.persist_all()?;
    array.store_slice_tx(0, &[42.0; 1000])?;
    println!(
        "array[0] = {}, array[999] = {}, array[1000] = {}",
        array.get(0)?,
        array.get(999)?,
        array.get(1000)?
    );
    println!(
        "device stats: {} bytes written through CXL.mem, {} flushes",
        runtime.fpga().unwrap().endpoint().stats().bytes_written,
        pool.persist_stats().flushes,
    );

    // 4. Ask the calibrated model what STREAM-PMem would achieve against this
    //    pool with 10 threads on socket 0 (the paper's class 1.(b) CXL trend).
    let stream = SimulatedStream::new(&runtime, StreamConfig::paper());
    let placement = runtime.place(&AffinityPolicy::SingleSocket(0), 10)?;
    for (node, label) in [(0, "local DDR5"), (1, "remote DDR5"), (2, "CXL DDR4")] {
        let point = stream.simulate(Kernel::Triad, &placement, node, AccessMode::AppDirect)?;
        println!(
            "Triad, 10 threads, {label:<12} (App-Direct): {:6.1} GB/s  (bottleneck: {})",
            point.bandwidth_gbs, point.bottleneck
        );
    }
    Ok(())
}
