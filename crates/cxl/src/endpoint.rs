//! The CXL Type-3 memory-expander endpoint.
//!
//! A [`Type3Device`] combines an HDM decoder set and a real backing store. It
//! is the software equivalent of the paper's FPGA endpoint: the host
//! enumerates it by programming an HDM decoder over its capacity, and the
//! persistent-memory layer moves whole object ranges through the bulk path
//! ([`Type3Device::read_bulk`], [`Type3Device::write_bulk`]) in device-local
//! addresses, counting the bytes and 64-byte lines it transfers.

use crate::config::LinkConfig;
use crate::error::CxlError;
use crate::hdm::{HdmDecoder, HdmRange};
use crate::sparse::SparseMemory;
use crate::Result;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Size of a cache line, the unit the line counters count in.
const CACHE_LINE_BYTES: usize = 64;

/// Aggregate statistics of a device's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Cache lines read: each bulk read counts its length in 64-byte lines,
    /// rounded up.
    pub lines_read: u64,
    /// Cache lines written, counted like [`lines_read`](Self::lines_read).
    pub lines_written: u64,
    /// Bytes read (payload).
    pub bytes_read: u64,
    /// Bytes written (payload).
    pub bytes_written: u64,
    /// Global-persistent-flush requests handled.
    pub gpf_flushes: u64,
}

/// Shards of the statistics counters; threads are spread over them
/// round-robin.
const STAT_SHARDS: usize = 16;

/// The shard the calling thread counts into: threads take successive
/// shards in the order they first count, so the workers of one pool land on
/// distinct shards.
fn stat_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STAT_SHARDS;
    }
    SHARD.with(|shard| *shard)
}

/// One shard of [`DeviceStats`] as relaxed atomic counters, alone on its
/// cache lines.
#[derive(Debug, Default)]
#[repr(align(128))]
struct StatShard {
    lines_read: AtomicU64,
    lines_written: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    gpf_flushes: AtomicU64,
}

/// [`DeviceStats`], sharded by thread, so that recording an access takes no
/// lock and threads transferring in parallel never write the same cache
/// line: a single shared counter would bounce between their cores on every
/// transfer, costing more than a small transfer itself and varying with
/// where the scheduler places the threads. A snapshot sums the shards; it
/// publishes no other data, and one taken while transfers are in flight may
/// count some of them in one field and not yet in another.
#[derive(Debug, Default)]
struct StatCounters {
    shards: [StatShard; STAT_SHARDS],
}

impl StatCounters {
    /// The calling thread's shard.
    fn local(&self) -> &StatShard {
        // in-bounds: stat_shard() is taken `% STAT_SHARDS`, the array's length.
        &self.shards[stat_shard()]
    }

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> DeviceStats {
        let sum = |counter: fn(&StatShard) -> &AtomicU64| {
            self.shards
                .iter()
                .map(|shard| counter(shard).load(Ordering::Relaxed))
                .sum()
        };
        DeviceStats {
            lines_read: sum(|s| &s.lines_read),
            lines_written: sum(|s| &s.lines_written),
            bytes_read: sum(|s| &s.bytes_read),
            bytes_written: sum(|s| &s.bytes_written),
            gpf_flushes: sum(|s| &s.gpf_flushes),
        }
    }
}

/// A CXL Type-3 (memory expander) endpoint with a functional backing store.
///
/// The data path takes no device-wide lock and writes no shared cache line:
/// the backing store is lock-striped per 64 KiB chunk and the statistics are
/// atomic counters sharded by thread, so hosts and workers transferring
/// disjoint ranges proceed in parallel.
#[derive(Debug)]
pub struct Type3Device {
    name: String,
    link: LinkConfig,
    hdm: RwLock<HdmDecoder>,
    memory: SparseMemory,
    stats: StatCounters,
}

impl Type3Device {
    /// Creates a device with `capacity_bytes` of zero-initialised memory.
    pub fn new(name: impl Into<String>, capacity_bytes: u64, link: LinkConfig) -> Self {
        Type3Device {
            name: name.into(),
            link,
            hdm: RwLock::new(HdmDecoder::new()),
            memory: SparseMemory::new(capacity_bytes),
            stats: StatCounters::default(),
        }
    }

    /// The device's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The negotiated link configuration.
    pub fn link(&self) -> LinkConfig {
        self.link
    }

    /// Capacity of the backing memory in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.memory.capacity()
    }

    /// Programs an HDM decoder range.
    pub fn program_hdm(&self, range: HdmRange) -> Result<()> {
        let capacity = self.capacity_bytes();
        match range.dpa_base.checked_add(range.local_bytes()) {
            Some(end) if end <= capacity => self.hdm.write().program(range),
            Some(end) => Err(CxlError::InvalidHdmRange(format!(
                "range maps {} bytes beyond device capacity",
                end - capacity
            ))),
            None => Err(CxlError::InvalidHdmRange(
                "range end overflows the device address space".to_string(),
            )),
        }
    }

    /// Total HPA bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.hdm.read().mapped_bytes()
    }

    /// Rejects `[dpa, dpa + len)` unless it lies inside the backing store.
    fn check_dpa(&self, dpa: u64, len: usize) -> Result<()> {
        if self.memory.in_bounds(dpa, len) {
            Ok(())
        } else {
            Err(CxlError::OutOfBounds {
                dpa,
                len,
                capacity: self.memory.capacity(),
            })
        }
    }

    /// Bulk read of `buf.len()` bytes starting at device-local address `dpa`.
    ///
    /// This is the path the persistent-memory runtime uses: it addresses the
    /// device directly in DPA space (the pool owns its region) and lets the
    /// analytical simulator account the time.
    pub fn read_bulk(&self, dpa: u64, buf: &mut [u8]) -> Result<()> {
        self.check_dpa(dpa, buf.len())?;
        self.memory.read(dpa, buf);
        let len = buf.len() as u64;
        StatCounters::add(&self.stats.local().bytes_read, len);
        StatCounters::add(
            &self.stats.local().lines_read,
            len.div_ceil(CACHE_LINE_BYTES as u64),
        );
        Ok(())
    }

    /// Bulk write of `buf` starting at device-local address `dpa`.
    pub fn write_bulk(&self, dpa: u64, buf: &[u8]) -> Result<()> {
        self.check_dpa(dpa, buf.len())?;
        self.memory.write(dpa, buf);
        let len = buf.len() as u64;
        StatCounters::add(&self.stats.local().bytes_written, len);
        StatCounters::add(
            &self.stats.local().lines_written,
            len.div_ceil(CACHE_LINE_BYTES as u64),
        );
        Ok(())
    }

    /// Global Persistent Flush: on a battery-backed or persistent device this
    /// guarantees all accepted writes reach the persistence domain.
    pub fn global_persistent_flush(&self) {
        StatCounters::add(&self.stats.local().gpf_flushes, 1);
    }

    /// Activity statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats.snapshot()
    }

    /// Simulates a power cycle. Persistent devices (the premise of the paper:
    /// the expander is off-node and battery-backed) keep their contents;
    /// volatile ones lose them. Either way the HDM decoders are cleared and
    /// must be reprogrammed, as after a real reboot.
    pub fn power_cycle(&self, persistent: bool) {
        if !persistent {
            self.memory.clear();
        }
        self.hdm.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdm::HdmRange;

    const MIB: u64 = 1024 * 1024;
    const HPA_BASE: u64 = 0x1000_0000;

    fn mapped_device() -> Type3Device {
        let dev = Type3Device::new("test-cxl", 16 * MIB, LinkConfig::gen5_x16());
        dev.program_hdm(HdmRange::linear(HPA_BASE, 16 * MIB, 0))
            .unwrap();
        dev
    }

    #[test]
    fn identification_registers_read_back() {
        let dev = Type3Device::new("id", 256 * MIB, LinkConfig::gen5_x16());
        assert_eq!(dev.name(), "id");
        assert_eq!(dev.capacity_bytes(), 256 * MIB);
        assert_eq!(dev.link(), LinkConfig::gen5_x16());
    }

    #[test]
    fn memory_access_requires_enable_bit() {
        // Enumeration programs the HDM decoder only: the bulk path addresses
        // the device in DPA space and is gated by its capacity alone.
        let dev = Type3Device::new("never-enumerated", MIB, LinkConfig::gen5_x16());
        assert_eq!(dev.mapped_bytes(), 0);
        dev.write_bulk(0, &[5u8; 64]).unwrap();
        let mut line = [0u8; 64];
        dev.read_bulk(0, &mut line).unwrap();
        assert_eq!(line, [5u8; 64]);
    }

    #[test]
    fn write_then_read_round_trips_through_hdm() {
        let range = HdmRange::linear(HPA_BASE, 16 * MIB, 0);
        let dev = Type3Device::new("decoded", 16 * MIB, LinkConfig::gen5_x16());
        dev.program_hdm(range).unwrap();
        let mut line = [0u8; 64];
        for (i, b) in line.iter_mut().enumerate() {
            *b = i as u8;
        }
        // The host decodes its address, then moves the line at the DPA.
        let dpa = range.translate(HPA_BASE + 128).unwrap();
        assert_eq!(dpa, 128);
        dev.write_bulk(dpa, &line).unwrap();
        let mut back = [0u8; 64];
        dev.read_bulk(dpa, &mut back).unwrap();
        assert_eq!(back, line);
        assert_eq!(dev.stats().lines_written, 1);
        assert_eq!(dev.stats().lines_read, 1);
    }

    #[test]
    fn partial_write_honours_byte_enable() {
        let dev = mapped_device();
        dev.write_bulk(0, &[0xFF; 64]).unwrap();
        // Overwrite only the first 4 bytes of the line.
        dev.write_bulk(0, &[0x00; 4]).unwrap();
        let mut data = [0u8; 64];
        dev.read_bulk(0, &mut data).unwrap();
        assert_eq!(&data[..4], &[0, 0, 0, 0]);
        assert_eq!(&data[4..], &[0xFF; 60]);
    }

    #[test]
    fn unmapped_address_is_rejected() {
        let dev = mapped_device();
        let mut buf = [0u8; 64];
        let err = dev.read_bulk(16 * MIB - 10, &mut buf).unwrap_err();
        assert_eq!(
            err,
            CxlError::OutOfBounds {
                dpa: 16 * MIB - 10,
                len: 64,
                capacity: 16 * MIB,
            }
        );
        assert!(dev.write_bulk(u64::MAX - 10, &buf).is_err());
        // A refused transfer moves and counts nothing.
        assert_eq!(dev.stats(), DeviceStats::default());
    }

    #[test]
    fn hdm_range_beyond_capacity_is_rejected() {
        let dev = Type3Device::new("small", MIB, LinkConfig::gen5_x16());
        assert!(dev.program_hdm(HdmRange::linear(0, 2 * MIB, 0)).is_err());
        // A DPA base whose end wraps the address space is refused, not summed.
        assert!(matches!(
            dev.program_hdm(HdmRange::linear(0, MIB, u64::MAX - 10)),
            Err(CxlError::InvalidHdmRange(_))
        ));
        assert_eq!(dev.mapped_bytes(), 0);
    }

    #[test]
    fn bulk_round_trip_and_stats() {
        let dev = mapped_device();
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        dev.write_bulk(4096, &payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        dev.read_bulk(4096, &mut back).unwrap();
        assert_eq!(back, payload);
        let stats = dev.stats();
        assert_eq!(stats.bytes_written, 8192);
        assert_eq!(stats.bytes_read, 8192);
        assert!(dev.read_bulk(16 * MIB - 10, &mut back).is_err());
        assert!(dev.write_bulk(16 * MIB - 10, &payload).is_err());
    }

    #[test]
    fn power_cycle_persistence_semantics() {
        let dev = mapped_device();
        dev.write_bulk(0, &[7u8; 64]).unwrap();
        // Persistent power cycle keeps contents but drops configuration.
        dev.power_cycle(true);
        assert_eq!(dev.mapped_bytes(), 0);
        let mut buf = [0u8; 64];
        dev.read_bulk(0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        // Volatile power cycle clears contents.
        dev.power_cycle(false);
        dev.read_bulk(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn gpf_doorbell_counts_flushes() {
        let dev = mapped_device();
        dev.global_persistent_flush();
        dev.global_persistent_flush();
        assert_eq!(dev.stats().gpf_flushes, 2);
    }

    #[test]
    fn flit_counters_track_link_traffic() {
        let dev = mapped_device();
        dev.write_bulk(0, &[1; 64]).unwrap();
        dev.read_bulk(0, &mut [0; 64]).unwrap();
        dev.global_persistent_flush();
        assert_eq!(
            dev.stats(),
            DeviceStats {
                lines_read: 1,
                lines_written: 1,
                bytes_read: 64,
                bytes_written: 64,
                gpf_flushes: 1,
            }
        );
    }

    #[test]
    fn concurrent_bulk_writers_do_not_corrupt_disjoint_regions() {
        let dev = std::sync::Arc::new(mapped_device());
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let dev = dev.clone();
                scope.spawn(move || {
                    let data = vec![t + 1; 4096];
                    dev.write_bulk(t as u64 * 4096, &data).unwrap();
                });
            }
        });
        for t in 0..4u8 {
            let mut buf = vec![0u8; 4096];
            dev.read_bulk(t as u64 * 4096, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == t + 1));
        }
    }

    #[test]
    fn concurrent_traffic_is_counted_exactly() {
        let dev = std::sync::Arc::new(mapped_device());
        // More threads than counter shards, so some threads share one.
        let threads = STAT_SHARDS as u64 + 4;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let dev = dev.clone();
                scope.spawn(move || {
                    let mut buf = vec![t as u8; 1000];
                    for i in 0..100u64 {
                        // Each thread owns a 512 KiB window; transfers cross chunks.
                        let dpa = t * MIB / 2 + i * 1000;
                        dev.write_bulk(dpa, &buf).unwrap();
                        dev.read_bulk(dpa, &mut buf).unwrap();
                        dev.global_persistent_flush();
                    }
                });
            }
        });
        let stats = dev.stats();
        assert_eq!(stats.bytes_written, threads * 100 * 1000);
        assert_eq!(stats.bytes_read, threads * 100 * 1000);
        assert_eq!(stats.lines_written, threads * 100 * 16);
        assert_eq!(stats.gpf_flushes, threads * 100);
    }
}
