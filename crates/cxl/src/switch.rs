//! CXL 2.0 switching and memory pooling.
//!
//! CXL 2.0 "expands the specification – among other capabilities – to memory
//! pools using CXL switches on a device level" (paper §1.3). A [`CxlSwitch`]
//! has upstream ports (hosts) and downstream ports (Type-3 devices); devices
//! can be bound to hosts and their capacity carved into pool allocations with
//! dynamic-capacity semantics, which is the mechanism behind "adaptive memory
//! provisioning to compute nodes in real time".
//!
//! # Concurrency
//!
//! All operations take `&self` and run under one lock over the whole switch:
//! every port's free list (bump watermark + released holes), the port→host
//! bindings and the live allocations. A carve moves bytes from free to
//! assigned under that lock, so every [`accounting`](CxlSwitch::accounting)
//! snapshot conserves (`unassigned + Σ assigned == total`), even while other
//! threads allocate, release and rebind. The switch sits off every hot path:
//! a pooled segment takes one allocation when it is created and one release
//! when it goes away. `tests` pin conservation with both a random-sequence
//! property and a multi-threaded stress run with a concurrent auditor.

use crate::endpoint::Type3Device;
use crate::error::CxlError;
use crate::sharing::{CoherenceMode, SharedRegion};
use crate::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a switch port.
pub type PortId = usize;
/// Identifier of a host (an upstream port owner).
pub type HostId = usize;

/// Allocation ids carry their port in the high bits:
/// `id = (port << PORT_SHIFT) | per-port sequence`.
const PORT_SHIFT: u32 = 40;

/// A capacity allocation handed to a host from the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolAllocation {
    /// Allocation id (the owning port lives in the high bits).
    pub id: u64,
    /// Host owning the allocation.
    pub host: HostId,
    /// Downstream port (device) the capacity comes from.
    pub port: PortId,
    /// Offset within the device (DPA).
    pub dpa_offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// A downstream port: the attached device and its free list.
#[derive(Debug)]
struct Port {
    device: Arc<Type3Device>,
    /// Next free DPA (bump allocation above the holes).
    watermark: u64,
    /// Released-but-not-yet-coalesced ranges, sorted by offset and kept
    /// merged. Holes are reusable (first-fit) and count as unassigned.
    holes: Vec<(u64, u64)>,
    /// Per-port id sequence (starts at 1; 0 is never a valid id).
    next_seq: u64,
}

impl Port {
    /// Bytes of the port assigned to no host: the bump space above the
    /// watermark plus the released holes below it.
    fn unassigned(&self) -> u64 {
        let holes: u64 = self.holes.iter().map(|&(_, len)| len).sum();
        self.device.capacity_bytes() - self.watermark + holes
    }
}

/// Everything the switch's one lock covers.
#[derive(Debug, Default)]
struct SwitchState {
    /// Downstream ports, append-only.
    ports: Vec<Port>,
    /// Downstream port -> host binding.
    bindings: HashMap<PortId, HostId>,
    /// Live allocations of every port, keyed by allocation id.
    live: HashMap<u64, PoolAllocation>,
}

/// A consistent capacity snapshot of the whole pool (see
/// [`CxlSwitch::accounting`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolAccounting {
    /// Total capacity across all downstream devices (bytes).
    pub total: u64,
    /// Bytes not assigned to any host.
    pub unassigned: u64,
    /// Bytes assigned per host (hosts with zero assignment are absent).
    pub assigned: HashMap<HostId, u64>,
}

impl PoolAccounting {
    /// Σ assigned across all hosts (bytes).
    pub fn assigned_total(&self) -> u64 {
        self.assigned.values().sum()
    }

    /// Whether conservation holds for this snapshot:
    /// `unassigned + Σ assigned == total`.
    pub fn conserves(&self) -> bool {
        self.unassigned + self.assigned_total() == self.total
    }
}

/// A CXL 2.0 switch with memory pooling. All operations take `&self` and run
/// under one lock; see the [module docs](self).
#[derive(Debug)]
pub struct CxlSwitch {
    name: String,
    state: Mutex<SwitchState>,
}

impl CxlSwitch {
    /// Creates a switch with no attached devices.
    pub fn new(name: impl Into<String>) -> Self {
        CxlSwitch {
            name: name.into(),
            state: Mutex::default(),
        }
    }

    /// Switch name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches a Type-3 device to the next downstream port; returns the port id.
    pub fn attach_device(&self, device: Arc<Type3Device>) -> PortId {
        let mut state = self.state.lock();
        state.ports.push(Port {
            device,
            watermark: 0,
            holes: Vec::new(),
            next_seq: 1,
        });
        state.ports.len() - 1
    }

    /// Number of downstream ports.
    pub fn ports(&self) -> usize {
        self.state.lock().ports.len()
    }

    /// The device on a port.
    pub fn device(&self, port: PortId) -> Result<Arc<Type3Device>> {
        self.state
            .lock()
            .ports
            .get(port)
            .map(|p| Arc::clone(&p.device))
            .ok_or(CxlError::UnknownPort(port))
    }

    /// Binds a downstream port exclusively to a host (CXL 2.0 single-logical-
    /// device assignment). Fails if already bound. The binding governs
    /// allocations that linearize after it; a carve already granted keeps its
    /// capacity.
    pub fn bind_port(&self, port: PortId, host: HostId) -> Result<()> {
        let mut state = self.state.lock();
        if port >= state.ports.len() {
            return Err(CxlError::UnknownPort(port));
        }
        if state.bindings.contains_key(&port) {
            return Err(CxlError::PortAlreadyBound(port));
        }
        state.bindings.insert(port, host);
        Ok(())
    }

    /// Unbinds a port (e.g. to re-provision it to another host).
    pub fn unbind_port(&self, port: PortId) -> Result<()> {
        let mut state = self.state.lock();
        if port >= state.ports.len() {
            return Err(CxlError::UnknownPort(port));
        }
        state.bindings.remove(&port);
        Ok(())
    }

    /// The host a port is bound to, if any.
    pub fn binding(&self, port: PortId) -> Option<HostId> {
        self.state.lock().bindings.get(&port).copied()
    }

    /// Total capacity across all downstream devices (bytes).
    pub fn total_capacity(&self) -> u64 {
        self.accounting().total
    }

    /// Capacity not yet assigned to any host (bytes): the bump space above
    /// every port's watermark plus the released holes below it.
    pub fn unassigned_capacity(&self) -> u64 {
        self.accounting().unassigned
    }

    /// A consistent capacity snapshot: total, unassigned and per-host assigned
    /// bytes, read under the switch lock, so it conserves
    /// (`unassigned + Σ assigned == total`) even while other threads are
    /// allocating and releasing.
    pub fn accounting(&self) -> PoolAccounting {
        let state = self.state.lock();
        let mut assigned: HashMap<HostId, u64> = HashMap::new();
        for a in state.live.values() {
            *assigned.entry(a.host).or_insert(0) += a.len;
        }
        PoolAccounting {
            total: state.ports.iter().map(|p| p.device.capacity_bytes()).sum(),
            unassigned: state.ports.iter().map(Port::unassigned).sum(),
            assigned,
        }
    }

    /// Allocates `len` bytes from the pool to `host` (dynamic capacity add).
    /// Unbound ports serve any host (multiple-logical-device pooling); ports
    /// exclusively bound to a *different* host are skipped. On each eligible
    /// port a released hole is reused first (first fit), then the bump
    /// watermark. An allocation never spans devices.
    pub fn allocate(&self, host: HostId, len: u64) -> Result<PoolAllocation> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        // Accumulated while scanning so the rejection can report the capacity
        // actually seen.
        let mut available = 0u64;
        for (port_id, port) in state.ports.iter_mut().enumerate() {
            if state
                .bindings
                .get(&port_id)
                .is_some_and(|&bound| bound != host)
            {
                continue;
            }
            let free_above = port.device.capacity_bytes() - port.watermark;
            available += port.unassigned();
            let dpa_offset = if let Some(hole) = port.holes.iter_mut().find(|&&mut (_, l)| l >= len)
            {
                let offset = hole.0;
                hole.0 += len;
                hole.1 -= len;
                port.holes.retain(|&(_, l)| l > 0);
                offset
            } else if free_above >= len {
                let offset = port.watermark;
                port.watermark += len;
                offset
            } else {
                continue;
            };
            let id = ((port_id as u64) << PORT_SHIFT) | port.next_seq;
            port.next_seq += 1;
            let allocation = PoolAllocation {
                id,
                host,
                port: port_id,
                dpa_offset,
                len,
            };
            state.live.insert(id, allocation.clone());
            return Ok(allocation);
        }
        Err(CxlError::InsufficientCapacity {
            requested: len,
            available,
        })
    }

    /// Releases an allocation (dynamic capacity release). The freed range
    /// becomes a reusable hole; when the range under the watermark is
    /// entirely free the watermark drops past **all** trailing free space, so
    /// releasing adjacent tail blocks out of order still reclaims the full
    /// bump range.
    pub fn release(&self, allocation_id: u64) -> Result<()> {
        let mut state = self.state.lock();
        let Some(freed) = state.live.remove(&allocation_id) else {
            return Err(CxlError::UnknownAllocation(allocation_id));
        };
        let port = &mut state.ports[freed.port];
        let at = port
            .holes
            .partition_point(|&(offset, _)| offset < freed.dpa_offset);
        port.holes.insert(at, (freed.dpa_offset, freed.len));
        // Merge adjacent holes (releases of neighbouring allocations).
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(port.holes.len());
        for &(offset, len) in port.holes.iter() {
            match merged.last_mut() {
                Some(last) if last.0 + last.1 == offset => last.1 += len,
                _ => merged.push((offset, len)),
            }
        }
        // Coalesce: a merged hole ending at the watermark is trailing free
        // space — fold it back into the bump range.
        if let Some(&(offset, len)) = merged.last() {
            if offset + len == port.watermark {
                port.watermark = offset;
                merged.pop();
            }
        }
        port.holes = merged;
        Ok(())
    }

    /// Wraps a live allocation in a [`SharedRegion`] over its device window —
    /// the attach-by-allocation path multi-headed sharing uses: carve from the
    /// pool, then expose exactly that carve to several hosts.
    pub fn shared_region(
        &self,
        allocation: &PoolAllocation,
        mode: CoherenceMode,
    ) -> Result<SharedRegion> {
        let device = {
            let state = self.state.lock();
            if state.live.get(&allocation.id) != Some(allocation) {
                return Err(CxlError::UnknownAllocation(allocation.id));
            }
            Arc::clone(&state.ports[allocation.port].device)
        };
        SharedRegion::new(device, allocation.dpa_offset, allocation.len, mode)
    }

    /// Capacity currently assigned to a host (bytes).
    pub fn assigned_to(&self, host: HostId) -> u64 {
        self.accounting().assigned.get(&host).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkConfig;
    use proptest::prelude::*;

    const GIB: u64 = 1024 * 1024 * 1024;

    fn switch_with_two_devices() -> CxlSwitch {
        let sw = CxlSwitch::new("rack-switch");
        sw.attach_device(Arc::new(Type3Device::new(
            "dev0",
            4 * GIB,
            LinkConfig::gen5_x16(),
        )));
        sw.attach_device(Arc::new(Type3Device::new(
            "dev1",
            4 * GIB,
            LinkConfig::gen5_x16(),
        )));
        sw
    }

    #[test]
    fn attach_and_capacity() {
        let sw = switch_with_two_devices();
        assert_eq!(sw.ports(), 2);
        assert_eq!(sw.total_capacity(), 8 * GIB);
        assert_eq!(sw.unassigned_capacity(), 8 * GIB);
        assert!(sw.device(0).is_ok());
        assert!(sw.device(5).is_err());
    }

    #[test]
    fn port_binding_is_exclusive() {
        let sw = switch_with_two_devices();
        sw.bind_port(0, 10).unwrap();
        assert_eq!(sw.binding(0), Some(10));
        assert_eq!(
            sw.bind_port(0, 11).unwrap_err(),
            CxlError::PortAlreadyBound(0)
        );
        sw.unbind_port(0).unwrap();
        sw.bind_port(0, 11).unwrap();
        assert!(sw.bind_port(7, 1).is_err());
    }

    #[test]
    fn pool_allocation_and_release() {
        let sw = switch_with_two_devices();
        let a = sw.allocate(1, 3 * GIB).unwrap();
        assert_eq!(a.port, 0);
        assert_eq!(a.dpa_offset, 0);
        // Next big allocation does not fit on device 0 and moves to device 1.
        let b = sw.allocate(2, 2 * GIB).unwrap();
        assert_eq!(b.port, 1);
        assert_eq!(sw.assigned_to(1), 3 * GIB);
        assert_eq!(sw.assigned_to(2), 2 * GIB);
        assert_eq!(sw.unassigned_capacity(), 3 * GIB);
        // Releasing the top allocation frees the capacity.
        sw.release(b.id).unwrap();
        assert_eq!(sw.unassigned_capacity(), 5 * GIB);
        assert!(sw.release(9999).is_err());
    }

    #[test]
    fn over_allocation_is_rejected_with_remaining_capacity() {
        let sw = switch_with_two_devices();
        sw.allocate(1, 4 * GIB).unwrap();
        let err = sw.allocate(1, 5 * GIB).unwrap_err();
        match err {
            CxlError::InsufficientCapacity {
                requested,
                available,
            } => {
                assert_eq!(requested, 5 * GIB);
                assert_eq!(available, 4 * GIB);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn allocate_skips_ports_bound_to_other_hosts() {
        // Regression: `allocate` used to ignore bindings entirely, handing
        // host 2 capacity from a device exclusively bound to host 1.
        let sw = switch_with_two_devices();
        sw.bind_port(0, 1).unwrap();
        let foreign = sw.allocate(2, GIB).unwrap();
        assert_eq!(foreign.port, 1, "host 2 must not land on host 1's port");
        // The bound host itself still allocates from its own port first.
        let own = sw.allocate(1, GIB).unwrap();
        assert_eq!(own.port, 0);
        // Bind the remaining port too: a third host has nowhere to go even
        // though bytes are free.
        sw.bind_port(1, 2).unwrap();
        assert!(matches!(
            sw.allocate(3, GIB).unwrap_err(),
            CxlError::InsufficientCapacity { .. }
        ));
        // Unbinding reopens the pool to everyone.
        sw.unbind_port(0).unwrap();
        assert_eq!(sw.allocate(3, GIB).unwrap().port, 0);
    }

    #[test]
    fn release_of_unknown_allocation_reports_the_full_id() {
        let sw = switch_with_two_devices();
        // Regression: this used to come back as InvalidRegister(id as u32),
        // a wrong variant whose truncating cast aliased ids ≥ 2^32.
        let id = (7u64 << 32) | 9;
        assert_eq!(sw.release(id).unwrap_err(), CxlError::UnknownAllocation(id));
        // An id whose encoded port does not exist is unknown too, not a panic.
        let wild = (99u64 << PORT_SHIFT) | 1;
        assert_eq!(
            sw.release(wild).unwrap_err(),
            CxlError::UnknownAllocation(wild)
        );
    }

    #[test]
    fn out_of_order_release_of_tail_blocks_reclaims_capacity() {
        let sw = switch_with_two_devices();
        let a = sw.allocate(1, GIB).unwrap();
        let b = sw.allocate(1, GIB).unwrap();
        let c = sw.allocate(1, GIB).unwrap();
        assert_eq!((a.port, b.port, c.port), (0, 0, 0));
        // Release the middle, then the top: the watermark must coalesce past
        // *both* (the old code only dropped it past the topmost allocation).
        sw.release(b.id).unwrap();
        sw.release(c.id).unwrap();
        assert_eq!(sw.unassigned_capacity(), 7 * GIB);
        // The whole 3 GiB tail is one bump range again.
        let big = sw.allocate(2, 3 * GIB).unwrap();
        assert_eq!(big.port, 0);
        assert_eq!(big.dpa_offset, GIB);
        sw.release(a.id).unwrap();
        sw.release(big.id).unwrap();
        assert_eq!(sw.unassigned_capacity(), 8 * GIB);
    }

    #[test]
    fn released_holes_are_reused_first_fit() {
        let sw = switch_with_two_devices();
        let a = sw.allocate(1, GIB).unwrap();
        let _b = sw.allocate(1, GIB).unwrap();
        sw.release(a.id).unwrap();
        // The hole below the live allocation is both counted and reusable.
        assert_eq!(sw.unassigned_capacity(), 7 * GIB);
        let again = sw.allocate(2, GIB / 2).unwrap();
        assert_eq!((again.port, again.dpa_offset), (0, 0));
        assert_eq!(sw.unassigned_capacity(), 7 * GIB - GIB / 2);
    }

    #[test]
    fn shared_region_wraps_a_live_allocation() {
        use crate::sharing::CoherenceMode;
        let sw = switch_with_two_devices();
        let alloc = sw.allocate(0, GIB).unwrap();
        let region = sw
            .shared_region(&alloc, CoherenceMode::SoftwareManaged)
            .unwrap();
        assert_eq!(region.len(), GIB);
        region.attach(0).write(0, b"pooled").unwrap();
        // The bytes landed inside the allocation's device window.
        let mut raw = [0u8; 6];
        sw.device(alloc.port)
            .unwrap()
            .read_bulk(alloc.dpa_offset, &mut raw)
            .unwrap();
        assert_eq!(&raw, b"pooled");
        // A released (or never-issued) allocation cannot be shared.
        let stale = alloc.clone();
        sw.release(alloc.id).unwrap();
        assert_eq!(
            sw.shared_region(&stale, CoherenceMode::SoftwareManaged)
                .unwrap_err(),
            CxlError::UnknownAllocation(stale.id)
        );
    }

    #[test]
    fn accounting_snapshot_conserves() {
        let sw = switch_with_two_devices();
        let a = sw.allocate(1, GIB).unwrap();
        sw.allocate(2, 2 * GIB).unwrap();
        let acct = sw.accounting();
        assert!(acct.conserves());
        assert_eq!(acct.total, 8 * GIB);
        assert_eq!(acct.assigned[&1], GIB);
        assert_eq!(acct.assigned[&2], 2 * GIB);
        sw.release(a.id).unwrap();
        let acct = sw.accounting();
        assert!(acct.conserves());
        assert!(!acct.assigned.contains_key(&1));
    }

    /// The fleet regime: many threads allocate, release and (un)bind at once
    /// while an auditor thread snapshots the accounting mid-flight. Every
    /// snapshot must conserve; after the storm the pool must drain back to
    /// fully unassigned.
    #[test]
    fn concurrent_allocate_release_conserves_capacity() {
        use std::sync::atomic::{AtomicBool, Ordering};

        const KIB: u64 = 1024;
        const THREADS: usize = 8;
        const OPS: usize = 300;

        let sw = Arc::new(CxlSwitch::new("fleet-switch"));
        for (i, cap) in [64 * KIB, 96 * KIB, 128 * KIB, 64 * KIB]
            .into_iter()
            .enumerate()
        {
            sw.attach_device(Arc::new(Type3Device::new(
                format!("stress-dev{i}"),
                cap,
                LinkConfig::gen5_x16(),
            )));
        }
        let total = sw.total_capacity();
        let done = Arc::new(AtomicBool::new(false));

        // Auditor: conservation must hold in *every* mid-flight snapshot.
        let auditor = {
            let sw = Arc::clone(&sw);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut snapshots = 0u32;
                while !done.load(Ordering::Relaxed) {
                    let acct = sw.accounting();
                    assert!(
                        acct.conserves(),
                        "mid-flight snapshot violated conservation: {} + {} != {}",
                        acct.unassigned,
                        acct.assigned_total(),
                        acct.total
                    );
                    snapshots += 1;
                    std::thread::yield_now();
                }
                snapshots
            })
        };

        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let sw = Arc::clone(&sw);
                std::thread::spawn(move || {
                    // Deterministic per-thread LCG so reruns are replayable.
                    let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1);
                    let mut rng = move || {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 16
                    };
                    let mut live: Vec<PoolAllocation> = Vec::new();
                    for _ in 0..OPS {
                        match rng() % 5 {
                            0..=2 => {
                                let len = (rng() % (24 * KIB)) + 1;
                                if let Ok(a) = sw.allocate(t, len) {
                                    live.push(a);
                                }
                            }
                            3 => {
                                if !live.is_empty() {
                                    let victim = rng() as usize % live.len();
                                    let a = live.swap_remove(victim);
                                    sw.release(a.id).unwrap();
                                }
                            }
                            _ => {
                                let port = rng() as usize % sw.ports();
                                if rng() % 2 == 0 {
                                    let _ = sw.bind_port(port, t);
                                } else {
                                    let _ = sw.unbind_port(port);
                                }
                            }
                        }
                    }
                    // Drain: everything this thread still holds goes back.
                    for a in live {
                        sw.release(a.id).unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        let snapshots = auditor.join().unwrap();
        assert!(snapshots > 0, "auditor never sampled");

        // Fully drained: every byte is unassigned again and no allocation
        // survived (double-release would have panicked a worker above).
        assert_eq!(sw.unassigned_capacity(), total);
        for host in 0..THREADS {
            assert_eq!(sw.assigned_to(host), 0);
        }
    }

    /// Two threads hammering the *same* port must never hand out
    /// overlapping ranges — the switch lock covers carve + registration.
    #[test]
    fn concurrent_carves_on_one_port_never_overlap() {
        const KIB: u64 = 1024;
        let sw = Arc::new(CxlSwitch::new("one-port"));
        sw.attach_device(Arc::new(Type3Device::new(
            "solo",
            512 * KIB,
            LinkConfig::gen5_x16(),
        )));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let sw = Arc::clone(&sw);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..40 {
                        if let Ok(a) = sw.allocate(t, ((t + i) % 7 + 1) as u64 * KIB) {
                            mine.push(a);
                        }
                    }
                    mine
                })
            })
            .collect();
        let all: Vec<PoolAllocation> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        for a in &all {
            for b in &all {
                if a.id != b.id {
                    assert_ne!(a.id, b.id);
                    assert!(
                        a.dpa_offset + a.len <= b.dpa_offset
                            || b.dpa_offset + b.len <= a.dpa_offset,
                        "allocations {} and {} overlap",
                        a.id,
                        b.id
                    );
                }
            }
        }
        let acct = sw.accounting();
        assert!(acct.conserves());
    }

    proptest! {
        /// Pool accounting is conservation of capacity: after *any* sequence
        /// of allocate / release / bind / unbind operations, every byte of
        /// the pool is either assigned to exactly one host or unassigned —
        /// `unassigned_capacity() + Σ_host assigned_to(host) ==
        /// total_capacity()` — and live allocations never overlap. (The
        /// multi-threaded variant of this property is the stress test above.)
        #[test]
        fn accounting_invariant_holds_across_random_sequences(
            raw_ops in collection::vec(any::<u64>(), 1..60)
        ) {
            const KIB: u64 = 1024;
            const HOSTS: usize = 4;
            let sw = CxlSwitch::new("prop-switch");
            for (i, cap) in [64 * KIB, 32 * KIB, 96 * KIB].into_iter().enumerate() {
                sw.attach_device(Arc::new(Type3Device::new(
                    format!("prop-dev{i}"),
                    cap,
                    LinkConfig::gen5_x16(),
                )));
            }
            let total = sw.total_capacity();
            let mut live: Vec<PoolAllocation> = Vec::new();
            for op in raw_ops {
                let host = (op >> 8) as usize % HOSTS;
                match op % 4 {
                    // Allocation attempts dominate so the pool actually fills
                    // up and InsufficientCapacity paths are exercised too.
                    0 | 1 => {
                        let len = ((op >> 16) % (48 * KIB)) + 1;
                        if let Ok(alloc) = sw.allocate(host, len) {
                            if let Some(bound) = sw.binding(alloc.port) {
                                prop_assert_eq!(
                                    bound, host,
                                    "allocation landed on a port bound to another host"
                                );
                            }
                            live.push(alloc);
                        }
                    }
                    2 => {
                        if !live.is_empty() {
                            let victim = (op >> 16) as usize % live.len();
                            let alloc = live.swap_remove(victim);
                            sw.release(alloc.id).unwrap();
                        }
                    }
                    _ => {
                        let port = (op >> 16) as usize % sw.ports();
                        if (op >> 32) & 1 == 0 {
                            let _ = sw.bind_port(port, host);
                        } else {
                            let _ = sw.unbind_port(port);
                        }
                    }
                }
                let assigned: u64 = (0..HOSTS).map(|h| sw.assigned_to(h)).sum();
                prop_assert_eq!(sw.unassigned_capacity() + assigned, total);
                let acct = sw.accounting();
                prop_assert!(acct.conserves());
                for a in &live {
                    for b in &live {
                        if a.id != b.id && a.port == b.port {
                            prop_assert!(
                                a.dpa_offset + a.len <= b.dpa_offset
                                    || b.dpa_offset + b.len <= a.dpa_offset,
                                "live allocations {} and {} overlap",
                                a.id,
                                b.id
                            );
                        }
                    }
                }
            }
        }
    }
}
