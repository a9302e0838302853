//! The CXL Type-3 memory-expander endpoint.
//!
//! A [`Type3Device`] combines the CXL.io and CXL.mem transaction layers, an
//! HDM decoder set and a real backing store. It is the software equivalent of
//! the paper's FPGA endpoint: the host enumerates it, programs an HDM decoder,
//! sets the memory-enable bit and then reads and writes cache lines through
//! CXL.mem requests. Bulk helpers are provided for the persistent-memory layer,
//! which moves whole object ranges rather than single lines.

use crate::config::{CxlDeviceType, LinkConfig};
use crate::error::CxlError;
use crate::hdm::{HdmDecoder, HdmRange};
use crate::sparse::SparseMemory;
use crate::transaction::{
    FlitCounters, IoRequest, IoResponse, MemOpcode, MemRequest, MemResponse, CACHE_LINE_BYTES,
};
use crate::Result;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Well-known CXL.io register offsets implemented by the model.
pub mod registers {
    /// Vendor/device identification (read-only).
    pub const REG_ID: u32 = 0x00;
    /// Device capacity in 256 MiB units (read-only).
    pub const REG_CAPACITY: u32 = 0x08;
    /// Memory-enable control bit (bit 0) — the HDM is inaccessible until set.
    pub const REG_MEM_ENABLE: u32 = 0x10;
    /// Device status: bit 0 = media ready, bit 1 = memory enabled.
    pub const REG_STATUS: u32 = 0x14;
    /// Global Persistent Flush doorbell: writing 1 requests a flush of all
    /// device buffers to the persistence domain.
    pub const REG_GPF_DOORBELL: u32 = 0x20;
}

/// Aggregate statistics of a device's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Cache lines read through CXL.mem.
    pub lines_read: u64,
    /// Cache lines written through CXL.mem.
    pub lines_written: u64,
    /// Bytes read (payload).
    pub bytes_read: u64,
    /// Bytes written (payload).
    pub bytes_written: u64,
    /// Global-persistent-flush requests handled.
    pub gpf_flushes: u64,
    /// Requests rejected (unmapped address, out of bounds, not ready).
    pub rejected: u64,
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
    rejected: AtomicU64,
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
            rejected: sum(|s| &s.rejected),
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
    vendor_id: u16,
    device_id: u16,
    hdm: RwLock<HdmDecoder>,
    memory: SparseMemory,
    mem_enabled: RwLock<bool>,
    counters: Mutex<FlitCounters>,
    stats: StatCounters,
}

impl Type3Device {
    /// Creates a device with `capacity_bytes` of zero-initialised memory.
    pub fn new(name: impl Into<String>, capacity_bytes: u64, link: LinkConfig) -> Self {
        Type3Device {
            name: name.into(),
            link,
            vendor_id: 0x8086,
            device_id: 0x0CF1,
            hdm: RwLock::new(HdmDecoder::new()),
            memory: SparseMemory::new(capacity_bytes),
            mem_enabled: RwLock::new(false),
            counters: Mutex::new(FlitCounters::default()),
            stats: StatCounters::default(),
        }
    }

    /// The device's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This is always a Type-3 device.
    pub fn device_type(&self) -> CxlDeviceType {
        CxlDeviceType::Type3
    }

    /// The negotiated link configuration.
    pub fn link(&self) -> LinkConfig {
        self.link
    }

    /// Capacity of the backing memory in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.memory.capacity()
    }

    /// Whether CXL.mem accesses are currently allowed.
    pub fn memory_enabled(&self) -> bool {
        *self.mem_enabled.read()
    }

    /// Programs an HDM decoder range.
    pub fn program_hdm(&self, range: HdmRange) -> Result<()> {
        if range.dpa_base + range.local_bytes() > self.capacity_bytes() {
            return Err(CxlError::InvalidHdmRange(format!(
                "range maps {} bytes beyond device capacity",
                range.dpa_base + range.local_bytes() - self.capacity_bytes()
            )));
        }
        self.hdm.write().program(range)
    }

    /// Total HPA bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.hdm.read().mapped_bytes()
    }

    /// Enables or disables CXL.mem access (mirrors the DVSEC memory-enable bit).
    pub fn set_memory_enable(&self, enable: bool) {
        *self.mem_enabled.write() = enable;
    }

    /// Handles a CXL.io request (configuration / MMIO register access).
    pub fn handle_io(&self, request: &IoRequest) -> IoResponse {
        self.counters.lock().record_io();
        use registers::*;
        match request {
            IoRequest::ConfigRead { offset } | IoRequest::MmioRead { offset } => match *offset {
                REG_ID => IoResponse {
                    value: (self.device_id as u32) << 16 | self.vendor_id as u32,
                    success: true,
                },
                REG_CAPACITY => IoResponse {
                    value: (self.capacity_bytes() / (256 * 1024 * 1024)) as u32,
                    success: true,
                },
                REG_MEM_ENABLE => IoResponse {
                    value: u32::from(self.memory_enabled()),
                    success: true,
                },
                REG_STATUS => IoResponse {
                    value: 0b01 | (u32::from(self.memory_enabled()) << 1),
                    success: true,
                },
                _ => IoResponse {
                    value: 0,
                    success: false,
                },
            },
            IoRequest::ConfigWrite { offset, value } | IoRequest::MmioWrite { offset, value } => {
                match *offset {
                    REG_MEM_ENABLE => {
                        self.set_memory_enable(*value & 1 == 1);
                        IoResponse {
                            value: *value,
                            success: true,
                        }
                    }
                    REG_GPF_DOORBELL => {
                        self.global_persistent_flush();
                        IoResponse {
                            value: *value,
                            success: true,
                        }
                    }
                    _ => IoResponse {
                        value: 0,
                        success: false,
                    },
                }
            }
        }
    }

    /// Handles one CXL.mem request against the backing store.
    pub fn handle_mem(&self, request: &MemRequest) -> Result<MemResponse> {
        if !self.memory_enabled() {
            StatCounters::add(&self.stats.local().rejected, 1);
            return Err(CxlError::NotReady("memory enable bit is clear"));
        }
        let dpa = match self.hdm.read().translate(request.hpa) {
            Ok(dpa) => dpa,
            Err(e) => {
                StatCounters::add(&self.stats.local().rejected, 1);
                return Err(e);
            }
        };
        let response = match request.opcode {
            MemOpcode::MemRd => {
                let data = self.read_line_dpa(dpa)?;
                StatCounters::add(&self.stats.local().lines_read, 1);
                StatCounters::add(&self.stats.local().bytes_read, CACHE_LINE_BYTES as u64);
                MemResponse {
                    tag: request.tag,
                    data: Some(data),
                    success: true,
                }
            }
            MemOpcode::MemInv => MemResponse {
                tag: request.tag,
                data: None,
                success: true,
            },
            MemOpcode::MemWr | MemOpcode::MemWrPtl => {
                let data = request
                    .data
                    .ok_or(CxlError::NotReady("write without payload"))?;
                let enable = if request.opcode == MemOpcode::MemWr {
                    u64::MAX
                } else {
                    request.byte_enable
                };
                self.write_line_dpa(dpa, &data, enable)?;
                StatCounters::add(&self.stats.local().lines_written, 1);
                StatCounters::add(
                    &self.stats.local().bytes_written,
                    enable.count_ones() as u64,
                );
                MemResponse {
                    tag: request.tag,
                    data: None,
                    success: true,
                }
            }
        };
        self.counters.lock().record_mem(request, &response);
        Ok(response)
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

    fn read_line_dpa(&self, dpa: u64) -> Result<[u8; CACHE_LINE_BYTES]> {
        self.check_dpa(dpa, CACHE_LINE_BYTES)?;
        let mut line = [0u8; CACHE_LINE_BYTES];
        self.memory.read(dpa, &mut line);
        Ok(line)
    }

    fn write_line_dpa(
        &self,
        dpa: u64,
        data: &[u8; CACHE_LINE_BYTES],
        byte_enable: u64,
    ) -> Result<()> {
        self.check_dpa(dpa, CACHE_LINE_BYTES)?;
        // Merge with the existing line so partial writes honour byte enables.
        self.memory.write_masked(dpa, data, byte_enable);
        Ok(())
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

    /// Link-level flit counters.
    pub fn flit_counters(&self) -> FlitCounters {
        *self.counters.lock()
    }

    /// Simulates a power cycle. Persistent devices (the premise of the paper:
    /// the expander is off-node and battery-backed) keep their contents;
    /// volatile ones lose them. Either way the memory-enable bit is cleared and
    /// HDM decoders must be reprogrammed, as after a real reboot.
    pub fn power_cycle(&self, persistent: bool) {
        if !persistent {
            self.memory.clear();
        }
        *self.mem_enabled.write() = false;
        self.hdm.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdm::HdmRange;

    const MIB: u64 = 1024 * 1024;

    fn enabled_device() -> Type3Device {
        let dev = Type3Device::new("test-cxl", 16 * MIB, LinkConfig::gen5_x16());
        dev.program_hdm(HdmRange::linear(0x1000_0000, 16 * MIB, 0))
            .unwrap();
        dev.set_memory_enable(true);
        dev
    }

    #[test]
    fn identification_registers_read_back() {
        let dev = Type3Device::new("id", 256 * MIB, LinkConfig::gen5_x16());
        let id = dev.handle_io(&IoRequest::ConfigRead {
            offset: registers::REG_ID,
        });
        assert!(id.success);
        assert_eq!(id.value & 0xFFFF, 0x8086);
        let cap = dev.handle_io(&IoRequest::ConfigRead {
            offset: registers::REG_CAPACITY,
        });
        assert_eq!(cap.value, 1); // 256 MiB = one capacity unit
        let bad = dev.handle_io(&IoRequest::ConfigRead { offset: 0xFFFF });
        assert!(!bad.success);
    }

    #[test]
    fn memory_access_requires_enable_bit() {
        let dev = Type3Device::new("gated", MIB, LinkConfig::gen5_x16());
        dev.program_hdm(HdmRange::linear(0, MIB, 0)).unwrap();
        let err = dev.handle_mem(&MemRequest::read(0, 0)).unwrap_err();
        assert!(matches!(err, CxlError::NotReady(_)));
        assert_eq!(dev.stats().rejected, 1);
        // Enable through the register interface, then it works.
        dev.handle_io(&IoRequest::MmioWrite {
            offset: registers::REG_MEM_ENABLE,
            value: 1,
        });
        assert!(dev.memory_enabled());
        assert!(dev.handle_mem(&MemRequest::read(0, 0)).is_ok());
    }

    #[test]
    fn write_then_read_round_trips_through_hdm() {
        let dev = enabled_device();
        let mut line = [0u8; CACHE_LINE_BYTES];
        for (i, b) in line.iter_mut().enumerate() {
            *b = i as u8;
        }
        let hpa = 0x1000_0000 + 128;
        dev.handle_mem(&MemRequest::write(hpa, line, 1)).unwrap();
        let resp = dev.handle_mem(&MemRequest::read(hpa, 2)).unwrap();
        assert_eq!(resp.data.unwrap(), line);
        assert_eq!(dev.stats().lines_written, 1);
        assert_eq!(dev.stats().lines_read, 1);
    }

    #[test]
    fn partial_write_honours_byte_enable() {
        let dev = enabled_device();
        let hpa = 0x1000_0000;
        dev.handle_mem(&MemRequest::write(hpa, [0xFF; 64], 0))
            .unwrap();
        // Overwrite only the first 4 bytes.
        dev.handle_mem(&MemRequest::write_partial(hpa, [0x00; 64], 0xF, 1))
            .unwrap();
        let data = dev
            .handle_mem(&MemRequest::read(hpa, 2))
            .unwrap()
            .data
            .unwrap();
        assert_eq!(&data[..4], &[0, 0, 0, 0]);
        assert_eq!(&data[4..8], &[0xFF; 4]);
    }

    #[test]
    fn unmapped_address_is_rejected() {
        let dev = enabled_device();
        let err = dev.handle_mem(&MemRequest::read(0x10, 0)).unwrap_err();
        assert!(matches!(err, CxlError::AddressNotMapped(_)));
    }

    #[test]
    fn hdm_range_beyond_capacity_is_rejected() {
        let dev = Type3Device::new("small", MIB, LinkConfig::gen5_x16());
        assert!(dev.program_hdm(HdmRange::linear(0, 2 * MIB, 0)).is_err());
    }

    #[test]
    fn bulk_round_trip_and_stats() {
        let dev = enabled_device();
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
        let dev = enabled_device();
        dev.write_bulk(0, &[7u8; 64]).unwrap();
        // Persistent power cycle keeps contents but drops configuration.
        dev.power_cycle(true);
        assert!(!dev.memory_enabled());
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
        let dev = enabled_device();
        dev.handle_io(&IoRequest::MmioWrite {
            offset: registers::REG_GPF_DOORBELL,
            value: 1,
        });
        dev.global_persistent_flush();
        assert_eq!(dev.stats().gpf_flushes, 2);
    }

    #[test]
    fn flit_counters_track_link_traffic() {
        let dev = enabled_device();
        dev.handle_mem(&MemRequest::write(0x1000_0000, [1; 64], 0))
            .unwrap();
        dev.handle_mem(&MemRequest::read(0x1000_0000, 1)).unwrap();
        let counters = dev.flit_counters();
        assert_eq!(counters.mem_requests, 2);
        assert!(counters.m2s_bytes > 0);
        assert!(counters.payload_efficiency() > 0.0);
    }

    #[test]
    fn concurrent_bulk_writers_do_not_corrupt_disjoint_regions() {
        let dev = std::sync::Arc::new(enabled_device());
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
        let dev = std::sync::Arc::new(enabled_device());
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
