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
//! that another host's CPU caches observe them. Each host therefore follows a
//! publication protocol (`publish`/`acquire`, i.e. flush + fence on the
//! writer and invalidate on the reader), and the region records the version
//! each host last acquired. Judging whether a host's view is current is left
//! to the application, as the paper leaves it: the disaggregated cluster
//! compares the host's acquired version with the region's in one place.
//!
//! A host attaches once and keeps the [`Attachment`] it gets back. It is the
//! host's only way to the region: every read, write, persist and protocol
//! call goes through it and reaches the host's state directly, with no lock
//! or table lookup on the data path. The region itself only attaches hosts
//! and reports their counters.

use crate::endpoint::Type3Device;
use crate::error::CxlError;
use crate::Result;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The part of a region every attachment shares: the device window and the
/// publication version.
#[derive(Debug)]
struct Window {
    device: Arc<Type3Device>,
    dpa_base: u64,
    len: u64,
    mode: CoherenceMode,
    /// Monotonic version, bumped by every publish.
    version: AtomicU64,
}

impl Window {
    /// Bumps the region version and returns the new one.
    fn bump_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Validates `[offset, offset + len)` against the window, with overflow-
    /// safe arithmetic: `offset + len` on adversarial inputs must not wrap
    /// below `self.len` and pass.
    fn check(&self, offset: u64, len: usize) -> Result<()> {
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
}

/// One attached host's protocol state and traffic counters. Every field is
/// an atomic, so every clone of the host's [`Attachment`] updates it without
/// a lock; the counters are relaxed, the protocol fields acquire/release.
#[derive(Debug)]
struct HostState {
    window: Arc<Window>,
    host: usize,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    publishes: AtomicU64,
    acquires: AtomicU64,
    /// Version of the region this host last acquired.
    acquired_version: AtomicU64,
}

/// One host's attachment to a [`SharedRegion`]: the handle its data path
/// and its protocol calls go through, with no lock and no host-table lookup.
///
/// [`SharedRegion::attach`] returns it. Clones share the host's one state,
/// and so does every later `attach` of the same host: an acquire through any
/// of them is the host's acquire. [`write`](Self::write) and
/// [`persist`](Self::persist) are the only calls that change the region's
/// bytes.
#[derive(Debug, Clone)]
pub struct Attachment(Arc<HostState>);

impl Attachment {
    /// The host this handle acts as.
    pub fn host(&self) -> usize {
        self.0.host
    }

    /// Length of the shared window in bytes.
    pub fn len(&self) -> u64 {
        self.0.window.len
    }

    /// Returns `true` for an empty window.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The region's coherence mode.
    pub fn mode(&self) -> CoherenceMode {
        self.0.window.mode
    }

    /// The region's current publication version (see
    /// [`SharedRegion::version`]).
    pub fn region_version(&self) -> u64 {
        self.0.window.version.load(Ordering::Acquire)
    }

    /// The region version this host last acquired, published, or (under
    /// hardware coherence) wrote.
    pub fn acquired_version(&self) -> u64 {
        self.0.acquired_version.load(Ordering::Acquire)
    }

    /// Writes `data` at `offset` within the region on behalf of the host.
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        let (state, window) = (&self.0, &self.0.window);
        window.check(offset, data.len())?;
        window.device.write_bulk(window.dpa_base + offset, data)?;
        state
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        // Hardware coherence publishes implicitly.
        if window.mode == CoherenceMode::HardwareBackInvalidate {
            state
                .acquired_version
                .store(window.bump_version(), Ordering::Release);
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset` on behalf of the host.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let window = &self.0.window;
        window.check(offset, buf.len())?;
        window.device.read_bulk(window.dpa_base + offset, buf)?;
        self.0
            .bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Publishes the host's writes: flush its caches to the device and bump
    /// the region version so other hosts can acquire it.
    pub fn publish(&self) -> u64 {
        let (state, window) = (&self.0, &self.0.window);
        window.device.global_persistent_flush();
        let version = window.bump_version();
        state.publishes.fetch_add(1, Ordering::Relaxed);
        state.acquired_version.store(version, Ordering::Release);
        version
    }

    /// Flushes the host's accepted writes into the device's persistence
    /// domain **without** publishing them: media durability (the GPF path a
    /// pool backend's `persist` maps to) is a weaker guarantee than
    /// cross-host visibility, which still requires [`publish`](Self::publish)
    /// under [`CoherenceMode::SoftwareManaged`].
    pub fn persist(&self) {
        self.0.window.device.global_persistent_flush();
    }

    /// Acquires the latest published version: invalidate the host's stale
    /// cached copies so subsequent reads observe other hosts' publications.
    pub fn acquire(&self) -> u64 {
        let version = self.region_version();
        self.0.acquired_version.store(version, Ordering::Release);
        self.0.acquires.fetch_add(1, Ordering::Relaxed);
        version
    }

    /// The host's traffic and protocol counters.
    pub fn stats(&self) -> HostShareStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        HostShareStats {
            bytes_written: load(&self.0.bytes_written),
            bytes_read: load(&self.0.bytes_read),
            publishes: load(&self.0.publishes),
            acquires: load(&self.0.acquires),
        }
    }
}

/// A window of a Type-3 device shared by multiple hosts.
///
/// Each host's calls go through its [`Attachment`], which takes no lock: the
/// host table is only locked exclusively to attach a host (and shared to
/// report a host's counters), and the device store is lock-striped per
/// chunk, so hosts (and one host's parallel workers) transfer concurrently.
#[derive(Debug)]
pub struct SharedRegion {
    window: Arc<Window>,
    hosts: RwLock<HashMap<usize, Attachment>>,
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
            window: Arc::new(Window {
                device,
                dpa_base,
                len,
                mode,
                version: AtomicU64::new(0),
            }),
            hosts: RwLock::new(HashMap::new()),
        })
    }

    /// Length of the shared window in bytes.
    pub fn len(&self) -> u64 {
        self.window.len
    }

    /// Returns `true` for an empty window.
    pub fn is_empty(&self) -> bool {
        self.window.len == 0
    }

    /// The coherence mode.
    pub fn mode(&self) -> CoherenceMode {
        self.window.mode
    }

    /// Attaches a host (maps the region into its address space) and returns
    /// its [`Attachment`]. Attaching an attached host returns a handle on its
    /// existing state.
    pub fn attach(&self, host: usize) -> Attachment {
        let mut hosts = self.hosts.write();
        let attachment = hosts.entry(host).or_insert_with(|| {
            Attachment(Arc::new(HostState {
                window: Arc::clone(&self.window),
                host,
                bytes_written: AtomicU64::new(0),
                bytes_read: AtomicU64::new(0),
                publishes: AtomicU64::new(0),
                acquires: AtomicU64::new(0),
                acquired_version: AtomicU64::new(0),
            }))
        });
        attachment.clone()
    }

    /// The current publication version (0 = nothing ever published). Every
    /// [`Attachment::publish`] — and, under hardware coherence, every
    /// write — bumps it.
    pub fn version(&self) -> u64 {
        self.window.version.load(Ordering::Acquire)
    }

    /// Per-host statistics; `None` for a host never attached.
    pub fn stats(&self, host: usize) -> Option<HostShareStats> {
        self.hosts.read().get(&host).map(Attachment::stats)
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

    /// Whether `host` has acquired every publication made so far.
    fn current(host: &Attachment) -> bool {
        host.acquired_version() == host.region_version()
    }

    #[test]
    fn region_must_fit_in_device() {
        let device = Arc::new(Type3Device::new("small", MIB, LinkConfig::gen5_x16()));
        assert!(SharedRegion::new(device, 0, 2 * MIB, CoherenceMode::SoftwareManaged).is_err());
    }

    #[test]
    fn unattached_hosts_cannot_access() {
        // An attachment is the only way in: a host never attached has no
        // state, and another host's traffic creates none for it.
        let r = region(CoherenceMode::SoftwareManaged);
        assert!(r.stats(0).is_none());
        let other = r.attach(1);
        other.write(0, &[1, 2, 3]).unwrap();
        other.publish();
        assert!(r.stats(0).is_none());
        assert_eq!(r.attach(0).stats(), HostShareStats::default());
        assert_eq!(r.stats(0), Some(HostShareStats::default()));
    }

    #[test]
    fn two_hosts_see_each_others_data_after_publish_acquire() {
        let r = region(CoherenceMode::SoftwareManaged);
        let (writer, reader) = (r.attach(0), r.attach(1));

        writer.write(1024, b"checkpoint-from-node-0").unwrap();
        assert_eq!(r.version(), 0, "a write publishes nothing");
        let version = writer.publish();
        assert!(current(&writer));
        // Host 1 has not yet acquired the new publication.
        assert!(!current(&reader));

        assert_eq!(reader.acquire(), version);
        assert!(current(&reader));
        let mut buf = [0u8; 22];
        reader.read(1024, &mut buf).unwrap();
        assert_eq!(&buf, b"checkpoint-from-node-0");
    }

    #[test]
    fn hardware_coherence_needs_no_explicit_protocol() {
        let r = region(CoherenceMode::HardwareBackInvalidate);
        let (writer, reader) = (r.attach(0), r.attach(1));
        writer.write(0, &[42; 64]).unwrap();
        // The write published itself; the reader sees it without acquiring.
        assert!(current(&writer));
        let mut buf = [0u8; 64];
        reader.read(0, &mut buf).unwrap();
        assert_eq!(buf, [42; 64]);
        assert_eq!(writer.stats().publishes + reader.stats().acquires, 0);
    }

    #[test]
    fn out_of_window_access_is_rejected() {
        let r = region(CoherenceMode::SoftwareManaged);
        let host = r.attach(0);
        assert!(host.write(8 * MIB - 2, &[1, 2, 3, 4]).is_err());
        let mut buf = [0u8; 16];
        assert!(host.read(8 * MIB, &mut buf).is_err());
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
        let host = r.attach(0);
        assert!(matches!(
            host.write(u64::MAX - 2, &[1, 2, 3, 4]).unwrap_err(),
            CxlError::OutOfBounds { .. }
        ));
        let mut buf = [0u8; 8];
        assert!(matches!(
            host.read(u64::MAX - 2, &mut buf).unwrap_err(),
            CxlError::OutOfBounds { .. }
        ));
        // In-bounds traffic still works after the rejections.
        host.write(0, &[9; 8]).unwrap();
        host.read(0, &mut buf).unwrap();
        assert_eq!(buf, [9; 8]);
    }

    #[test]
    fn persist_is_durability_without_publication() {
        let device = Arc::new(Type3Device::new("gpf", MIB, LinkConfig::gen5_x16()));
        let r =
            SharedRegion::new(Arc::clone(&device), 0, MIB, CoherenceMode::SoftwareManaged).unwrap();
        let host = r.attach(0);
        host.write(0, &[7; 32]).unwrap();
        host.persist();
        // The bytes are durable but nothing is published.
        assert_eq!(device.stats().gpf_flushes, 1);
        assert_eq!(r.version(), 0);
        assert_eq!(host.stats().publishes, 0);
        let v = host.publish();
        assert_eq!(r.version(), v);
        assert_eq!(device.stats().gpf_flushes, 2, "a publish flushes too");
    }

    #[test]
    fn stats_track_traffic_and_protocol_ops() {
        let r = region(CoherenceMode::SoftwareManaged);
        let host = r.attach(0);
        host.write(0, &[1; 128]).unwrap();
        host.publish();
        let mut buf = [0u8; 64];
        host.read(0, &mut buf).unwrap();
        host.acquire();
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
        let hosts: Vec<Attachment> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4usize)
                .map(|host| {
                    let r = &r;
                    s.spawn(move || {
                        let attachment = r.attach(host);
                        let base = host as u64 * 2 * MIB;
                        let mut buf = vec![host as u8 + 1; 10_000];
                        for i in 0..50u64 {
                            attachment.write(base + i * 10_000, &buf).unwrap();
                            attachment.read(base + i * 10_000, &mut buf).unwrap();
                            assert!(buf.iter().all(|&b| b == host as u8 + 1));
                        }
                        attachment.publish();
                        attachment
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(r.version(), 4, "every publish bumps the version once");
        for host in &hosts {
            let stats = r.stats(host.host()).unwrap();
            assert_eq!(stats, host.stats());
            assert_eq!(stats.bytes_written, 500_000);
            assert_eq!(stats.bytes_read, 500_000);
            assert_eq!(stats.publishes, 1);
        }
        // Only the last publisher saw every publication; the rest must acquire.
        assert_eq!(hosts.iter().filter(|&h| current(h)).count(), 1);
        hosts[2].acquire();
        assert!(current(&hosts[2]));
    }

    #[test]
    fn traffic_through_a_handle_counts_in_the_hosts_stats() {
        let r = region(CoherenceMode::SoftwareManaged);
        let handle = r.attach(3);
        assert_eq!(handle.host(), 3);
        assert_eq!(handle.len(), r.len());
        handle.write(100, &[5; 300]).unwrap();
        let mut buf = [0u8; 120];
        handle.read(150, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 5));
        // Through a second attachment of the host, the same bytes count in
        // one place.
        r.attach(3).write(0, &[1; 7]).unwrap();
        handle.persist();
        let version = handle.publish();
        assert_eq!(version, r.version());
        let stats = r.stats(3).unwrap();
        assert_eq!(stats, handle.stats());
        assert_eq!(
            stats,
            HostShareStats {
                bytes_written: 307,
                bytes_read: 120,
                publishes: 1,
                acquires: 0,
            }
        );
        // A refused access counts nothing.
        assert!(handle.write(8 * MIB - 1, &[0; 2]).is_err());
        assert_eq!(r.stats(3).unwrap(), stats);
    }

    #[test]
    fn two_handles_of_one_host_share_one_state() {
        let r = region(CoherenceMode::SoftwareManaged);
        let (first, writer) = (r.attach(1), r.attach(0));
        let second = r.attach(1);
        let clone = first.clone();
        writer.write(0, b"v1").unwrap();
        let v1 = writer.publish();
        assert!(!current(&first) && !current(&second));
        // An acquire through either handle is the host's acquire.
        assert_eq!(second.acquire(), v1);
        assert!(current(&first) && current(&clone));
        assert_eq!(first.acquired_version(), v1);
        writer.publish();
        assert!(!current(&first) && !current(&second));
        clone.acquire();
        assert!(current(&second));
        assert_eq!(r.stats(1).unwrap().acquires, 2);
    }

    #[test]
    fn a_write_through_a_handle_bumps_the_version_under_hardware_coherence() {
        let r = region(CoherenceMode::HardwareBackInvalidate);
        let (writer, reader) = (r.attach(0), r.attach(1));
        assert_eq!(writer.region_version(), 0);
        writer.write(0, &[1; 64]).unwrap();
        assert_eq!(r.version(), 1);
        assert_eq!(writer.acquired_version(), 1);
        // The reader never acquired: its acquired version stays behind.
        assert_eq!(reader.acquired_version(), 0);
        writer.write(64, &[2; 64]).unwrap();
        assert_eq!(reader.region_version(), 2);
    }

    #[test]
    fn versions_advance_monotonically() {
        let r = region(CoherenceMode::SoftwareManaged);
        let host = r.attach(0);
        let v1 = host.publish();
        let v2 = host.publish();
        assert!(v2 > v1);
        assert_eq!(host.acquire(), v2);
    }
}
