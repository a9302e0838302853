//! Multi-headed sharing of device memory with software-managed coherence.
//!
//! Paper §2.2: "the CXL link facilitates access to an identical memory volume
//! … the same far memory segment can be made available to two distinct NUMA
//! nodes … However, due to the absence of a unified cache-coherent domain, the
//! onus of maintaining coherency between the two NUMA nodes assigned to the
//! shared far memory rests with the applications."
//!
//! [`SharedRegion`] models that arrangement: a window of a [`Type3Device`]
//! that several hosts attach. The device itself is a single store, so writes
//! are immediately visible at the media level — what is *not* guaranteed is
//! that another host's CPU caches observe them. The region therefore tracks a
//! per-host publication protocol (`publish`/`acquire`, i.e. flush + fence on
//! the writer and invalidate on the reader) and can detect unsafe access
//! sequences, which is exactly the discipline the paper expects applications
//! to follow.

use crate::endpoint::Type3Device;
use crate::error::CxlError;
use crate::Result;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How coherence across hosts is maintained for a shared region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceMode {
    /// No hardware coherence; applications publish/acquire explicitly
    /// (the prototype's only option).
    SoftwareManaged,
    /// Hardware back-invalidation (CXL 3.0 style) — visibility is automatic.
    HardwareBackInvalidate,
}

/// Statistics of one host's use of a shared region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostShareStats {
    /// Bytes written by the host.
    pub bytes_written: u64,
    /// Bytes read by the host.
    pub bytes_read: u64,
    /// Publish (flush + fence) operations.
    pub publishes: u64,
    /// Acquire (invalidate) operations.
    pub acquires: u64,
}

/// One attached host's protocol state and traffic counters. Every field is
/// an atomic, so data accesses update it under the host table's shared
/// lock; the counters are relaxed, the protocol fields acquire/release.
#[derive(Debug, Default)]
struct HostState {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    publishes: AtomicU64,
    acquires: AtomicU64,
    /// Version of the region this host last acquired.
    acquired_version: AtomicU64,
    /// Whether the host has unpublished writes.
    dirty: AtomicBool,
}

/// A window of a Type-3 device shared by multiple hosts.
///
/// Reads and writes take no exclusive lock: the host table is only locked
/// exclusively to attach a host, and the device store is lock-striped per
/// chunk, so hosts (and one host's parallel workers) transfer concurrently.
#[derive(Debug)]
pub struct SharedRegion {
    device: Arc<Type3Device>,
    dpa_base: u64,
    len: u64,
    mode: CoherenceMode,
    hosts: RwLock<HashMap<usize, HostState>>,
    /// Monotonic version, bumped by every publish.
    version: AtomicU64,
}

impl SharedRegion {
    /// Creates a shared region over `[dpa_base, dpa_base + len)` of `device`.
    pub fn new(
        device: Arc<Type3Device>,
        dpa_base: u64,
        len: u64,
        mode: CoherenceMode,
    ) -> Result<Self> {
        // `checked_add`: an adversarial (base, len) pair near u64::MAX must
        // not wrap around and slip past the capacity comparison.
        let end = dpa_base.checked_add(len).ok_or(CxlError::OutOfBounds {
            dpa: dpa_base,
            len: len as usize,
            capacity: device.capacity_bytes(),
        })?;
        if end > device.capacity_bytes() {
            return Err(CxlError::OutOfBounds {
                dpa: dpa_base,
                len: len as usize,
                capacity: device.capacity_bytes(),
            });
        }
        Ok(SharedRegion {
            device,
            dpa_base,
            len,
            mode,
            hosts: RwLock::new(HashMap::new()),
            version: AtomicU64::new(0),
        })
    }

    /// Length of the shared window in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` for an empty window.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The coherence mode.
    pub fn mode(&self) -> CoherenceMode {
        self.mode
    }

    /// Attaches a host (maps the region into its address space).
    pub fn attach(&self, host: usize) {
        self.hosts.write().entry(host).or_default();
    }

    /// Number of attached hosts.
    pub fn attached_hosts(&self) -> usize {
        self.hosts.read().len()
    }

    /// Runs `f` on `host`'s state, or fails if the host is not attached.
    fn with_host<R>(&self, host: usize, f: impl FnOnce(&HostState) -> Result<R>) -> Result<R> {
        let hosts = self.hosts.read();
        let state = hosts.get(&host).ok_or(CxlError::NotAttached { host })?;
        f(state)
    }

    /// Bumps the region version and returns the new one.
    fn bump_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Validates `[offset, offset + len)` against the window, with overflow-
    /// safe arithmetic: `offset + len` on adversarial inputs must not wrap
    /// below `self.len` and pass.
    fn check_window(&self, offset: u64, len: usize) -> Result<()> {
        let out_of_bounds = || CxlError::OutOfBounds {
            dpa: self.dpa_base.saturating_add(offset),
            len,
            capacity: self.dpa_base + self.len,
        };
        let end = offset.checked_add(len as u64).ok_or_else(out_of_bounds)?;
        if end > self.len {
            return Err(out_of_bounds());
        }
        Ok(())
    }

    /// Writes `data` at `offset` within the region on behalf of `host`.
    pub fn write(&self, host: usize, offset: u64, data: &[u8]) -> Result<()> {
        self.with_host(host, |state| {
            self.check_window(offset, data.len())?;
            self.device.write_bulk(self.dpa_base + offset, data)?;
            state
                .bytes_written
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            // Hardware coherence publishes implicitly.
            if self.mode == CoherenceMode::HardwareBackInvalidate {
                state
                    .acquired_version
                    .store(self.bump_version(), Ordering::Release);
            } else {
                state.dirty.store(true, Ordering::Release);
            }
            Ok(())
        })
    }

    /// Reads `buf.len()` bytes at `offset` on behalf of `host`.
    pub fn read(&self, host: usize, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.with_host(host, |state| {
            self.check_window(offset, buf.len())?;
            self.device.read_bulk(self.dpa_base + offset, buf)?;
            state
                .bytes_read
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
            Ok(())
        })
    }

    /// Publishes the host's writes: flush its caches to the device and bump the
    /// region version so other hosts can acquire it.
    pub fn publish(&self, host: usize) -> Result<u64> {
        self.with_host(host, |state| {
            self.device.global_persistent_flush();
            let version = self.bump_version();
            state.dirty.store(false, Ordering::Release);
            state.publishes.fetch_add(1, Ordering::Relaxed);
            state.acquired_version.store(version, Ordering::Release);
            Ok(version)
        })
    }

    /// Flushes the host's accepted writes into the device's persistence
    /// domain **without** publishing them: media durability (the GPF path a
    /// pool backend's `persist` maps to) is a weaker guarantee than
    /// cross-host visibility, which still requires [`publish`](Self::publish)
    /// under [`CoherenceMode::SoftwareManaged`].
    pub fn persist(&self, host: usize) -> Result<()> {
        self.with_host(host, |_| {
            self.device.global_persistent_flush();
            Ok(())
        })
    }

    /// The current publication version (0 = nothing ever published). Every
    /// [`publish`](Self::publish) — and, under hardware coherence, every
    /// write — bumps it.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Acquires the latest published version: invalidate the host's stale
    /// cached copies so subsequent reads observe other hosts' publications.
    pub fn acquire(&self, host: usize) -> Result<u64> {
        self.with_host(host, |state| {
            let version = self.version();
            state.acquired_version.store(version, Ordering::Release);
            state.acquires.fetch_add(1, Ordering::Relaxed);
            Ok(version)
        })
    }

    /// Whether `host` is guaranteed (under the software protocol) to observe
    /// every publication made so far. With hardware coherence this is always
    /// `true` once attached.
    pub fn is_up_to_date(&self, host: usize) -> bool {
        self.with_host(host, |state| {
            Ok(match self.mode {
                CoherenceMode::HardwareBackInvalidate => true,
                CoherenceMode::SoftwareManaged => {
                    state.acquired_version.load(Ordering::Acquire) == self.version()
                }
            })
        })
        .unwrap_or(false)
    }

    /// Whether `host` has written data it has not yet published.
    pub fn has_unpublished_writes(&self, host: usize) -> bool {
        self.with_host(host, |state| Ok(state.dirty.load(Ordering::Acquire)))
            .unwrap_or(false)
    }

    /// Per-host statistics.
    pub fn stats(&self, host: usize) -> Option<HostShareStats> {
        self.with_host(host, |state| {
            let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
            Ok(HostShareStats {
                bytes_written: load(&state.bytes_written),
                bytes_read: load(&state.bytes_read),
                publishes: load(&state.publishes),
                acquires: load(&state.acquires),
            })
        })
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkConfig;

    const MIB: u64 = 1024 * 1024;

    fn region(mode: CoherenceMode) -> SharedRegion {
        let device = Arc::new(Type3Device::new(
            "shared-dev",
            16 * MIB,
            LinkConfig::gen5_x16(),
        ));
        SharedRegion::new(device, 0, 8 * MIB, mode).unwrap()
    }

    #[test]
    fn region_must_fit_in_device() {
        let device = Arc::new(Type3Device::new("small", MIB, LinkConfig::gen5_x16()));
        assert!(SharedRegion::new(device, 0, 2 * MIB, CoherenceMode::SoftwareManaged).is_err());
    }

    #[test]
    fn unattached_hosts_cannot_access() {
        let r = region(CoherenceMode::SoftwareManaged);
        assert!(matches!(
            r.write(0, 0, &[1, 2, 3]).unwrap_err(),
            CxlError::NotAttached { host: 0 }
        ));
        let mut buf = [0u8; 4];
        assert!(r.read(1, 0, &mut buf).is_err());
        assert!(r.publish(0).is_err());
    }

    #[test]
    fn two_hosts_see_each_others_data_after_publish_acquire() {
        let r = region(CoherenceMode::SoftwareManaged);
        r.attach(0);
        r.attach(1);
        assert_eq!(r.attached_hosts(), 2);

        r.write(0, 1024, b"checkpoint-from-node-0").unwrap();
        assert!(r.has_unpublished_writes(0));
        r.publish(0).unwrap();
        assert!(!r.has_unpublished_writes(0));
        // Host 1 has not yet acquired the new publication.
        assert!(!r.is_up_to_date(1));

        r.acquire(1).unwrap();
        assert!(r.is_up_to_date(1));
        let mut buf = [0u8; 22];
        r.read(1, 1024, &mut buf).unwrap();
        assert_eq!(&buf, b"checkpoint-from-node-0");
    }

    #[test]
    fn hardware_coherence_needs_no_explicit_protocol() {
        let r = region(CoherenceMode::HardwareBackInvalidate);
        r.attach(0);
        r.attach(1);
        r.write(0, 0, &[42; 64]).unwrap();
        assert!(!r.has_unpublished_writes(0));
        assert!(r.is_up_to_date(1));
    }

    #[test]
    fn out_of_window_access_is_rejected() {
        let r = region(CoherenceMode::SoftwareManaged);
        r.attach(0);
        assert!(r.write(0, 8 * MIB - 2, &[1, 2, 3, 4]).is_err());
        let mut buf = [0u8; 16];
        assert!(r.read(0, 8 * MIB, &mut buf).is_err());
    }

    #[test]
    fn overflowing_window_arithmetic_is_rejected() {
        // Region construction: dpa_base + len wrapping past u64::MAX used to
        // pass the capacity check.
        let device = Arc::new(Type3Device::new("small", MIB, LinkConfig::gen5_x16()));
        assert!(matches!(
            SharedRegion::new(
                Arc::clone(&device),
                u64::MAX - 4,
                8,
                CoherenceMode::SoftwareManaged
            )
            .unwrap_err(),
            CxlError::OutOfBounds { .. }
        ));
        // Accesses: offset + data.len() wrapping used to pass the window check
        // and only fail (or worse, alias) at the device layer.
        let r = SharedRegion::new(device, 0, MIB, CoherenceMode::SoftwareManaged).unwrap();
        r.attach(0);
        assert!(matches!(
            r.write(0, u64::MAX - 2, &[1, 2, 3, 4]).unwrap_err(),
            CxlError::OutOfBounds { .. }
        ));
        let mut buf = [0u8; 8];
        assert!(matches!(
            r.read(0, u64::MAX - 2, &mut buf).unwrap_err(),
            CxlError::OutOfBounds { .. }
        ));
        // In-bounds traffic still works after the rejections.
        r.write(0, 0, &[9; 8]).unwrap();
        r.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [9; 8]);
    }

    #[test]
    fn persist_is_durability_without_publication() {
        let r = region(CoherenceMode::SoftwareManaged);
        r.attach(0);
        r.attach(1);
        r.write(0, 0, &[7; 32]).unwrap();
        r.persist(0).unwrap();
        // The bytes are durable but host 0 still owes a publish.
        assert_eq!(r.version(), 0);
        assert!(r.has_unpublished_writes(0));
        assert!(r.persist(9).is_err(), "unattached hosts cannot persist");
        let v = r.publish(0).unwrap();
        assert_eq!(r.version(), v);
        assert!(!r.has_unpublished_writes(0));
    }

    #[test]
    fn stats_track_traffic_and_protocol_ops() {
        let r = region(CoherenceMode::SoftwareManaged);
        r.attach(0);
        r.write(0, 0, &[1; 128]).unwrap();
        r.publish(0).unwrap();
        let mut buf = [0u8; 64];
        r.read(0, 0, &mut buf).unwrap();
        r.acquire(0).unwrap();
        let stats = r.stats(0).unwrap();
        assert_eq!(stats.bytes_written, 128);
        assert_eq!(stats.bytes_read, 64);
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.acquires, 1);
        assert!(r.stats(9).is_none());
    }

    #[test]
    fn hosts_transfer_concurrently_and_count_exactly() {
        let r = region(CoherenceMode::SoftwareManaged);
        std::thread::scope(|s| {
            for host in 0..4usize {
                let r = &r;
                s.spawn(move || {
                    r.attach(host);
                    let base = host as u64 * 2 * MIB;
                    let mut buf = vec![host as u8 + 1; 10_000];
                    for i in 0..50u64 {
                        r.write(host, base + i * 10_000, &buf).unwrap();
                        r.read(host, base + i * 10_000, &mut buf).unwrap();
                        assert!(buf.iter().all(|&b| b == host as u8 + 1));
                    }
                    r.publish(host).unwrap();
                });
            }
        });
        assert_eq!(r.attached_hosts(), 4);
        assert_eq!(r.version(), 4, "every publish bumps the version once");
        for host in 0..4 {
            let stats = r.stats(host).unwrap();
            assert_eq!(stats.bytes_written, 500_000);
            assert_eq!(stats.bytes_read, 500_000);
            assert_eq!(stats.publishes, 1);
            assert!(!r.has_unpublished_writes(host));
        }
        // Only the last publisher saw every publication; the rest must acquire.
        assert_eq!((0..4).filter(|&h| r.is_up_to_date(h)).count(), 1);
        r.acquire(2).unwrap();
        assert!(r.is_up_to_date(2));
        assert!(!r.is_up_to_date(9), "unattached hosts are never up to date");
    }

    #[test]
    fn versions_advance_monotonically() {
        let r = region(CoherenceMode::SoftwareManaged);
        r.attach(0);
        let v1 = r.publish(0).unwrap();
        let v2 = r.publish(0).unwrap();
        assert!(v2 > v1);
        let acquired = r.acquire(0).unwrap();
        assert_eq!(acquired, v2);
    }
}
