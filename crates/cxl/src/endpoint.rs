//! The CXL Type-3 memory-expander endpoint.
//!
//! A [`Type3Device`] is a real backing store behind a CXL link: the software
//! equivalent of the paper's FPGA endpoint. The persistent-memory layer moves
//! whole object ranges through the bulk path ([`Type3Device::read_bulk`],
//! [`Type3Device::write_bulk`]) in device-local addresses (DPA), counting the
//! bytes and 64-byte lines it transfers. A kernel that loads and stores
//! device memory directly, as STREAM-PMem does on a DAX mapping, runs on the
//! device's own bytes through [`Type3Device::apply`], which counts the same
//! traffic. Every functional path addresses the device by DPA; a multi-card
//! interleave exists only in the machine model, as `memsim`'s aggregate
//! window device.

use crate::config::LinkConfig;
use crate::error::CxlError;
use crate::sparse::{ranges_overlap, ApplyFn, SparseMemory, MAX_APPLY_INPUTS};
use crate::Result;
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
    memory: SparseMemory,
    stats: StatCounters,
}

impl Type3Device {
    /// Creates a device with `capacity_bytes` of zero-initialised memory.
    pub fn new(name: impl Into<String>, capacity_bytes: u64, link: LinkConfig) -> Self {
        Type3Device {
            name: name.into(),
            link,
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

    /// Runs `f` on the device's own memory: `f` reads `len` bytes at each DPA
    /// of `inputs`, in the order given, and writes `len` bytes at `output`,
    /// in place, in the pieces [`SparseMemory::apply`] describes. Each input
    /// counts as a read of `len` bytes and the output as a write, exactly as
    /// [`read_bulk`](Self::read_bulk) and [`write_bulk`](Self::write_bulk)
    /// count them.
    ///
    /// Refuses, before touching or counting anything, a range out of bounds
    /// ([`CxlError::OutOfBounds`]), more than two inputs
    /// ([`CxlError::TooManyInputs`]) and an input overlapping the output
    /// ([`CxlError::OverlappingRanges`]).
    pub fn apply(
        &self,
        inputs: &[u64],
        output: u64,
        len: usize,
        f: &mut ApplyFn<'_>,
    ) -> Result<()> {
        if inputs.len() > MAX_APPLY_INPUTS {
            return Err(CxlError::TooManyInputs {
                inputs: inputs.len(),
                max: MAX_APPLY_INPUTS,
            });
        }
        self.check_dpa(output, len)?;
        for &input in inputs {
            self.check_dpa(input, len)?;
            if ranges_overlap(input, output, len) {
                return Err(CxlError::OverlappingRanges { input, output, len });
            }
        }
        self.memory.apply(inputs, output, len, f);
        let shard = self.stats.local();
        let (count, len) = (inputs.len() as u64, len as u64);
        let lines = len.div_ceil(CACHE_LINE_BYTES as u64);
        StatCounters::add(&shard.bytes_read, count * len);
        StatCounters::add(&shard.lines_read, count * lines);
        StatCounters::add(&shard.bytes_written, len);
        StatCounters::add(&shard.lines_written, lines);
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
    /// volatile ones lose them.
    pub fn power_cycle(&self, persistent: bool) {
        if !persistent {
            self.memory.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;
    const LINE: usize = 64;

    fn device() -> Type3Device {
        Type3Device::new("test-cxl", 16 * MIB, LinkConfig::gen5_x16())
    }

    #[test]
    fn a_device_reports_its_name_capacity_and_link() {
        let dev = Type3Device::new("id", 256 * MIB, LinkConfig::gen5_x16());
        assert_eq!(dev.name(), "id");
        assert_eq!(dev.capacity_bytes(), 256 * MIB);
        assert_eq!(dev.link(), LinkConfig::gen5_x16());
    }

    #[test]
    fn a_fresh_device_serves_its_last_line() {
        // The bulk path addresses the device in DPA space and is gated by
        // its capacity alone: a fresh device serves its last line.
        let dev = Type3Device::new("fresh", MIB, LinkConfig::gen5_x16());
        dev.write_bulk(MIB - 64, &[5u8; 64]).unwrap();
        let mut line = [0u8; 64];
        dev.read_bulk(MIB - 64, &mut line).unwrap();
        assert_eq!(line, [5u8; 64]);
    }

    #[test]
    fn write_then_read_round_trips_by_dpa() {
        let dev = Type3Device::new("decoded", 16 * MIB, LinkConfig::gen5_x16());
        let mut line = [0u8; 64];
        for (i, b) in line.iter_mut().enumerate() {
            *b = i as u8;
        }
        dev.write_bulk(128, &line).unwrap();
        let mut back = [0u8; 64];
        dev.read_bulk(128, &mut back).unwrap();
        assert_eq!(back, line);
        assert_eq!(dev.stats().lines_written, 1);
        assert_eq!(dev.stats().lines_read, 1);
    }

    #[test]
    fn a_short_write_changes_only_its_bytes() {
        let dev = device();
        dev.write_bulk(0, &[0xFF; 64]).unwrap();
        // Overwrite only the first 4 bytes of the line.
        dev.write_bulk(0, &[0x00; 4]).unwrap();
        let mut data = [0u8; 64];
        dev.read_bulk(0, &mut data).unwrap();
        assert_eq!(&data[..4], &[0, 0, 0, 0]);
        assert_eq!(&data[4..], &[0xFF; 60]);
    }

    #[test]
    fn out_of_bounds_transfers_are_refused_and_count_nothing() {
        let dev = device();
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

        // In-place computations are refused the same way, with a typed
        // error each, before a byte moves or a line is counted.
        let mut ran = false;
        let mut mark = |_: &[&[u8]], out: &mut [u8]| {
            ran = true;
            out.fill(0xEE);
        };
        assert_eq!(
            dev.apply(&[0], 16 * MIB - 10, 64, &mut mark),
            Err(CxlError::OutOfBounds {
                dpa: 16 * MIB - 10,
                len: 64,
                capacity: 16 * MIB,
            })
        );
        assert!(matches!(
            dev.apply(&[u64::MAX - 10], 0, 64, &mut mark),
            Err(CxlError::OutOfBounds { .. })
        ));
        assert_eq!(
            dev.apply(&[4096, 100], 64, 64, &mut mark),
            Err(CxlError::OverlappingRanges {
                input: 100,
                output: 64,
                len: 64,
            })
        );
        assert_eq!(
            dev.apply(&[0, 4096, 8192], 65536, 64, &mut mark),
            Err(CxlError::TooManyInputs { inputs: 3, max: 2 })
        );
        assert!(!ran);
        assert_eq!(dev.stats(), DeviceStats::default());
        let mut line = [0u8; 64];
        dev.read_bulk(64, &mut line).unwrap();
        assert_eq!(line, [0u8; 64], "a refused computation wrote nothing");
    }

    #[test]
    fn range_beyond_capacity_is_rejected() {
        let dev = Type3Device::new("small", MIB, LinkConfig::gen5_x16());
        let whole = vec![0u8; 2 * MIB as usize];
        assert!(matches!(
            dev.write_bulk(0, &whole),
            Err(CxlError::OutOfBounds { capacity: MIB, .. })
        ));
        // A DPA whose end wraps the address space is refused, not summed.
        assert!(matches!(
            dev.write_bulk(u64::MAX - 10, &[0u8; 64]),
            Err(CxlError::OutOfBounds { .. })
        ));
        assert_eq!(dev.stats(), DeviceStats::default());
    }

    #[test]
    fn bulk_round_trip_and_stats() {
        let dev = device();
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

        // An in-place computation counts each input as a bulk read of its
        // length and the output as a bulk write: 2 × 1000 bytes (2 × 16
        // lines) read, 1000 bytes (16 lines) written.
        let before = dev.stats();
        dev.apply(&[4096, 100_000], 200_000, 1000, &mut |ins, out| {
            for ((o, a), b) in out.iter_mut().zip(ins[0]).zip(ins[1]) {
                *o = a ^ b;
            }
        })
        .unwrap();
        let after = dev.stats();
        assert_eq!(after.bytes_read - before.bytes_read, 2 * 1000);
        assert_eq!(after.lines_read - before.lines_read, 2 * 16);
        assert_eq!(after.bytes_written - before.bytes_written, 1000);
        assert_eq!(after.lines_written - before.lines_written, 16);
        dev.read_bulk(200_000, &mut back[..1000]).unwrap();
        assert_eq!(
            &back[..1000],
            &payload[..1000],
            "zeros at 100 000 leave x ^ 0"
        );
    }

    #[test]
    fn power_cycle_persistence_semantics() {
        let dev = device();
        dev.write_bulk(0, &[7u8; 64]).unwrap();
        // Persistent power cycle keeps contents.
        dev.power_cycle(true);
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
        let dev = device();
        dev.global_persistent_flush();
        dev.global_persistent_flush();
        assert_eq!(dev.stats().gpf_flushes, 2);
    }

    #[test]
    fn counters_track_bulk_traffic_and_flushes() {
        let dev = device();
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
        let dev = std::sync::Arc::new(device());
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
        let dev = std::sync::Arc::new(device());
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

    #[test]
    fn a_line_read_returns_zeros_and_counts_one_line() {
        let dev = device();
        let mut line = [0xAAu8; LINE];
        dev.read_bulk(0x1000, &mut line).unwrap();
        // Untouched device memory reads as zeros.
        assert_eq!(line, [0u8; LINE]);
        let stats = dev.stats();
        assert_eq!((stats.lines_read, stats.bytes_read), (1, LINE as u64));
        assert_eq!((stats.lines_written, stats.bytes_written), (0, 0));
    }

    #[test]
    fn a_two_line_write_counts_two_lines() {
        let dev = device();
        dev.write_bulk(0x40, &[0xAB; 2 * LINE]).unwrap();
        let stats = dev.stats();
        assert_eq!(
            (stats.lines_written, stats.bytes_written),
            (2, 2 * LINE as u64)
        );
        assert_eq!((stats.lines_read, stats.bytes_read), (0, 0));
    }

    #[test]
    fn partial_write_keeps_byte_enable() {
        let dev = device();
        // Four bytes of one line: the payload counts four bytes, the line one.
        dev.write_bulk(0x80, &[1u8; 4]).unwrap();
        let stats = dev.stats();
        assert_eq!((stats.lines_written, stats.bytes_written), (1, 4));
    }

    #[test]
    fn empty_transfers_count_nothing_and_partial_lines_round_up() {
        let dev = device();
        // A transfer without data counts nothing; one byte counts a whole line.
        dev.read_bulk(0, &mut []).unwrap();
        dev.write_bulk(0, &[]).unwrap();
        assert_eq!(dev.stats(), DeviceStats::default());
        dev.read_bulk(0, &mut [0u8; 1]).unwrap();
        dev.write_bulk(0, &[0u8; LINE + 1]).unwrap();
        assert_eq!(dev.stats().lines_read, 1);
        assert_eq!(dev.stats().lines_written, 2);
    }

    #[test]
    fn counters_accumulate_and_compute_efficiency() {
        let dev = device();
        dev.write_bulk(0, &[7u8; 100]).unwrap();
        dev.write_bulk(4096, &[7u8; 28]).unwrap();
        dev.read_bulk(0, &mut [0u8; 100]).unwrap();
        let stats = dev.stats();
        assert_eq!(stats.bytes_written, 128);
        assert_eq!(stats.lines_written, 3);
        // Payload efficiency: bytes moved over the line bytes they occupy.
        let efficiency = stats.bytes_written as f64 / (stats.lines_written * LINE as u64) as f64;
        assert!(efficiency > 0.0 && efficiency < 1.0);
        assert_eq!(stats.lines_read, 2);
    }
}
