//! Pool backends: where the pool's bytes physically live.
//!
//! PMDK pools live on a DAX filesystem backed by the PMem device. Here the
//! same pool code runs over any [`PoolBackend`]:
//!
//! * [`VolatileBackend`] — an in-memory buffer; shared clones survive a
//!   simulated process crash, which is what the crash-injection tests use.
//! * [`SharedRegionBackend`] — a window of switch-pooled CXL memory shared by
//!   several hosts (`cxl::SharedRegion`): the pool lives in the far-memory
//!   segment one host checkpoints into and another restores from. It reaches
//!   the window only through its host's `cxl::Attachment`. `persist` is
//!   media durability (Global Persistent Flush); cross-host *visibility*
//!   stays with the region's software-managed `publish`/`acquire` protocol,
//!   which the disaggregated-cluster layer drives explicitly.
//! * Any other implementation supplied by a caller — the `cxl-pmem` crate
//!   provides one that stores bytes on a whole `cxl::Type3Device`, which is
//!   the paper's App-Direct configuration (a pool living on the expander,
//!   the `/mnt/pmem2` DAX mount of §1.4).
//!
//! [`Crash`] is the one way to crash a host. It wraps each of the host's
//! backends, counts their data-path calls in one sequence, and from a chosen
//! call on lets none of them reach the media: the host died there, whatever
//! layer it was updating. The crash suites sweep every call of an op.
//!
//! Besides reads and writes, a backend runs computations on its stored bytes
//! ([`PoolBackend::apply_at`]): a kernel reads up to two ranges and writes a
//! third, as STREAM-PMem's kernels load and store the arrays of a pool on a
//! DAX mount. A backend whose bytes live in a `cxl::SparseMemory` — the
//! expander backend and [`VolatileBackend`] — runs the kernel on those bytes
//! in place. Every other backend keeps the provided method, which stages
//! each piece through per-thread buffers with one `read_at` per input and
//! one `write_at` per output.

use crate::error::PmemError;
use crate::Result;
use cxl::sparse::{ranges_overlap, ApplyFn, MAX_APPLY_INPUTS};
use cxl::{Attachment, SharedRegion, SparseMemory};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where a pool's bytes live. All offsets are pool-relative.
pub trait PoolBackend: Send + Sync {
    /// Total size of the backing store in bytes.
    fn capacity(&self) -> u64;
    /// Reads `buf.len()` bytes at `offset`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// Writes `data` at `offset`.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;
    /// Runs `f` on the stored bytes: `f` reads `len` bytes at each offset of
    /// `inputs`, in the order given, and writes `len` bytes at `output`.
    ///
    /// The ranges arrive in pieces that start at the same offset into every
    /// range; for any power of two up to 32 KiB that divides every offset
    /// and `len`, each piece's start and length are multiples of it too, so
    /// the pieces of element-aligned ranges hold whole elements. `f` must
    /// write every byte of its output piece, whose contents on entry are
    /// unspecified, and must not reach the backend itself: an in-place
    /// backend holds the piece's locks while `f` runs. A piece is written
    /// whole or, on error, the call stops.
    ///
    /// Refuses, before reading or writing anything, a range out of bounds,
    /// more than two inputs, or an input overlapping the output
    /// ([`check_apply`]). The provided body stages each piece of up to
    /// [`APPLY_PIECE_BYTES`] through buffers the calling thread keeps between
    /// calls: one `read_at` per input and one `write_at` for the output,
    /// with no allocation after a thread's first call.
    fn apply_at(&self, inputs: &[u64], output: u64, len: usize, f: &mut ApplyFn<'_>) -> Result<()> {
        check_apply(self.capacity(), inputs, output, len)?;
        // A call nested in one of this call's transfers finds the buffers
        // taken and stages through buffers of its own.
        let mut stage = APPLY_STAGE
            .with(Cell::take)
            .unwrap_or_else(|| vec![0u8; STAGE_BYTES].into_boxed_slice());
        let result = staged_apply(self, &mut stage, inputs, output, len, f);
        APPLY_STAGE.with(|cell| cell.set(Some(stage)));
        result
    }
    /// Makes the byte range durable (CLWB+SFENCE / `msync` equivalent).
    fn persist(&self, offset: u64, len: u64) -> Result<()>;
    /// Whether the store survives power loss.
    fn is_persistent(&self) -> bool;
    /// Human-readable description (device name, window, host...).
    fn describe(&self) -> String;
}

/// A cheaply clonable shared handle to a backend.
pub type SharedBackend = Arc<dyn PoolBackend>;

/// Bytes of each range the provided [`PoolBackend::apply_at`] stages per
/// piece: one 32 KiB block of a STREAM-PMem worker moves in one call per
/// range.
pub const APPLY_PIECE_BYTES: usize = 32 * 1024;

/// The provided `apply_at`'s staging buffers: one piece per input, then one
/// for the output.
const STAGE_BYTES: usize = (MAX_APPLY_INPUTS + 1) * APPLY_PIECE_BYTES;

thread_local! {
    /// This thread's staging buffers, kept between `apply_at` calls so a
    /// call neither allocates nor zeroes them.
    static APPLY_STAGE: Cell<Option<Box<[u8]>>> = const { Cell::new(None) };
}

/// The provided [`PoolBackend::apply_at`] after its checks: stages each piece
/// through `stage` ([`STAGE_BYTES`] long).
fn staged_apply<B: PoolBackend + ?Sized>(
    backend: &B,
    stage: &mut [u8],
    inputs: &[u64],
    output: u64,
    len: usize,
    f: &mut ApplyFn<'_>,
) -> Result<()> {
    // in-bounds: stage holds STAGE_BYTES, past the inputs' pieces.
    let (staged, result) = stage.split_at_mut(MAX_APPLY_INPUTS * APPLY_PIECE_BYTES);
    let mut done = 0usize;
    while done < len {
        let take = APPLY_PIECE_BYTES.min(len - done);
        for (buf, &at) in staged.chunks_exact_mut(APPLY_PIECE_BYTES).zip(inputs) {
            // in-bounds: take ≤ APPLY_PIECE_BYTES, the piece buffer's length.
            backend.read_at(at + done as u64, &mut buf[..take])?;
        }
        let mut ins: [&[u8]; MAX_APPLY_INPUTS] = [&[]; MAX_APPLY_INPUTS];
        for (slice, buf) in ins.iter_mut().zip(staged.chunks_exact(APPLY_PIECE_BYTES)) {
            // in-bounds: take ≤ APPLY_PIECE_BYTES, the piece buffer's length.
            *slice = &buf[..take];
        }
        // in-bounds: take ≤ APPLY_PIECE_BYTES = result.len().
        let out = &mut result[..take];
        // in-bounds: check_apply proved inputs.len() ≤ MAX_APPLY_INPUTS.
        f(&ins[..inputs.len()], out);
        backend.write_at(output + done as u64, out)?;
        done += take;
    }
    Ok(())
}

/// Checks that `[offset, offset + len)` lies inside a backend of `capacity`
/// bytes. The end is computed with `checked_add`, so an offset near
/// `u64::MAX` is [`PmemError::SizeOverflow`] instead of wrapping into range.
pub fn check_bounds(capacity: u64, offset: u64, len: usize) -> Result<()> {
    let end = offset
        .checked_add(len as u64)
        .ok_or(PmemError::SizeOverflow)?;
    if end > capacity {
        return Err(PmemError::OutOfBounds {
            offset,
            len: len as u64,
            pool_size: capacity,
        });
    }
    Ok(())
}

/// Checks the ranges of a [`PoolBackend::apply_at`] call on a backend of
/// `capacity` bytes: at most two inputs, every range of `len` bytes in bounds
/// ([`check_bounds`]), and no input overlapping the output.
pub fn check_apply(capacity: u64, inputs: &[u64], output: u64, len: usize) -> Result<()> {
    if inputs.len() > MAX_APPLY_INPUTS {
        return Err(PmemError::Apply("more than two inputs"));
    }
    check_bounds(capacity, output, len)?;
    for &input in inputs {
        check_bounds(capacity, input, len)?;
        if ranges_overlap(input, output, len) {
            return Err(PmemError::Apply("an input overlaps the output"));
        }
    }
    Ok(())
}

/// An in-memory backend. Clones share the same storage, so a "crashed" pool
/// can be reopened over the same bytes — emulating a machine whose DRAM-based
/// PMem (battery-backed or CXL expander) retained its content.
///
/// The bytes live in a [`cxl::SparseMemory`], the store the expander model
/// uses: locked per 64 KiB chunk, so workers on disjoint chunks never
/// contend, and materialised on first write. A transfer is atomic per chunk,
/// as on the device.
#[derive(Clone)]
pub struct VolatileBackend {
    memory: Arc<SparseMemory>,
    persistent: bool,
}

impl VolatileBackend {
    /// Creates a zeroed in-memory backend of the given size, reported as
    /// non-persistent.
    pub fn new(capacity: u64) -> Self {
        VolatileBackend {
            memory: Arc::new(SparseMemory::new(capacity)),
            persistent: false,
        }
    }

    /// Same storage, but reported as persistent — models battery-backed DRAM
    /// or the off-node CXL expander of the paper.
    pub fn new_persistent(capacity: u64) -> Self {
        VolatileBackend {
            persistent: true,
            ..Self::new(capacity)
        }
    }
}

impl PoolBackend for VolatileBackend {
    fn capacity(&self) -> u64 {
        self.memory.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        check_bounds(self.capacity(), offset, buf.len())?;
        self.memory.read(offset, buf);
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        check_bounds(self.capacity(), offset, data.len())?;
        self.memory.write(offset, data);
        Ok(())
    }

    fn apply_at(&self, inputs: &[u64], output: u64, len: usize, f: &mut ApplyFn<'_>) -> Result<()> {
        check_apply(self.capacity(), inputs, output, len)?;
        self.memory.apply(inputs, output, len, f);
        Ok(())
    }

    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        check_bounds(self.capacity(), offset, len as usize)?;
        Ok(())
    }

    fn is_persistent(&self) -> bool {
        self.persistent
    }

    fn describe(&self) -> String {
        format!(
            "volatile[{} bytes, {}]",
            self.capacity(),
            if self.persistent {
                "battery-backed"
            } else {
                "dram"
            }
        )
    }
}

/// A pool living inside a multi-headed shared far-memory window, accessed on
/// behalf of one host.
///
/// This is the disaggregated-HPC configuration of the paper's §2.2: the pool
/// bytes sit in a `cxl::SharedRegion` carved out of a switch-managed memory
/// pool, and *which host* is doing the access matters — the region tracks
/// per-host traffic and the publish/acquire coherence protocol. The backend
/// attaches its host on construction and keeps the host's
/// [`cxl::Attachment`], so every read/write goes straight to the host's state
/// without a host-table lookup, and `persist` maps to the region's
/// media-durability flush (GPF), **not** to `publish` — a checkpoint becomes
/// visible to other hosts only when the owning layer publishes explicitly
/// after the commit record is durable.
pub struct SharedRegionBackend {
    attachment: Attachment,
}

impl SharedRegionBackend {
    /// Creates a backend over `region` acting as `host` (attaching the host
    /// to the region if it is not attached yet).
    pub fn new(region: Arc<SharedRegion>, host: usize) -> Self {
        SharedRegionBackend {
            attachment: region.attach(host),
        }
    }

    /// The host this backend accesses the region as.
    pub fn host(&self) -> usize {
        self.attachment.host()
    }
}

impl PoolBackend for SharedRegionBackend {
    fn capacity(&self) -> u64 {
        self.attachment.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        check_bounds(self.capacity(), offset, buf.len())?;
        Ok(self.attachment.read(offset, buf)?)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        check_bounds(self.capacity(), offset, data.len())?;
        Ok(self.attachment.write(offset, data)?)
    }

    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        check_bounds(self.capacity(), offset, len as usize)?;
        self.attachment.persist();
        Ok(())
    }

    fn is_persistent(&self) -> bool {
        // The premise of the paper: the pooled expander is off-node and
        // battery-backed, so it survives any single compute node's failure.
        true
    }

    fn describe(&self) -> String {
        format!(
            "shared-cxl[host {}, {} bytes, {:?}]",
            self.host(),
            self.capacity(),
            self.attachment.mode()
        )
    }
}

/// One host's crash: every backend it [wraps](Crash::wrap) counts its reads,
/// writes and persists in one sequence, and once [armed](Crash::arm) the
/// host dies at a chosen call. That call and every later one fail with
/// [`PmemError::InjectedCrash`] without reaching the media; a torn write
/// lands its first half first. Clones share the one sequence.
#[derive(Clone, Default)]
pub struct Crash(Arc<CrashState>);

#[derive(Default)]
struct CrashState {
    /// Calls counted so far, across every wrapped backend.
    calls: AtomicU64,
    /// One past the call the host dies at; 0 while it lives.
    dies_after: AtomicU64,
    /// Whether the write the host dies at lands its first half.
    torn: AtomicBool,
}

impl Crash {
    /// A live host with no call counted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps one of the host's backends.
    pub fn wrap(&self, backend: SharedBackend) -> SharedBackend {
        Arc::new(Crashing {
            inner: backend,
            crash: self.clone(),
        })
    }

    /// Calls counted so far, across every wrapped backend.
    pub fn calls(&self) -> u64 {
        self.0.calls.load(Ordering::Relaxed)
    }

    /// Arms the crash at the `k`-th call from now: the next `k` calls pass
    /// through, and that call and every later one fail. With `torn`, the
    /// call it lands on, when it is a write, lands its first half first.
    pub fn arm(&self, k: u64, torn: bool) {
        self.0.torn.store(torn, Ordering::Relaxed);
        let dies_after = self.calls().saturating_add(k).saturating_add(1);
        self.0.dies_after.store(dies_after, Ordering::Relaxed);
    }

    /// Revives the host: every call passes through again.
    pub fn revive(&self) {
        self.0.dies_after.store(0, Ordering::Relaxed);
    }

    /// Runs `case(k, torn)` at every crash position of an op: `k = 0, 1, ...`
    /// with whole writes, then with torn ones, each until `case` returns
    /// `false` because the op ran to its end without reaching call `k`.
    /// Returns the positions explored, the two uncrashed runs included.
    pub fn sweep(mut case: impl FnMut(u64, bool) -> bool) -> usize {
        let mut positions = 0;
        for torn in [false, true] {
            for k in 0u64.. {
                positions += 1;
                if !case(k, torn) {
                    break;
                }
            }
        }
        positions
    }

    /// Counts a call: `None` while the host lives, else whether the call
    /// tears (it is the one the host dies at, armed torn).
    fn fate(&self) -> Option<bool> {
        let call = self.0.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let dies_after = self.0.dies_after.load(Ordering::Relaxed);
        (dies_after != 0 && call >= dies_after)
            .then(|| call == dies_after && self.0.torn.load(Ordering::Relaxed))
    }
}

fn died() -> PmemError {
    PmemError::InjectedCrash("a backend call")
}

/// A backend wrapped by a [`Crash`].
struct Crashing {
    inner: SharedBackend,
    crash: Crash,
}

impl PoolBackend for Crashing {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        match self.crash.fate() {
            None => self.inner.read_at(offset, buf),
            Some(_) => Err(died()),
        }
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        match self.crash.fate() {
            None => self.inner.write_at(offset, data),
            Some(torn) => {
                if torn {
                    // in-bounds: data.len() / 2 ≤ data.len().
                    self.inner.write_at(offset, &data[..data.len() / 2])?;
                }
                Err(died())
            }
        }
    }

    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        match self.crash.fate() {
            None => self.inner.persist(offset, len),
            Some(_) => Err(died()),
        }
    }

    fn is_persistent(&self) -> bool {
        self.inner.is_persistent()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volatile_round_trip_and_bounds() {
        let backend = VolatileBackend::new(4096);
        backend.write_at(100, b"hello pmem").unwrap();
        let mut buf = [0u8; 10];
        backend.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello pmem");
        assert!(backend.write_at(4090, &[0u8; 16]).is_err());
        assert!(backend.read_at(5000, &mut buf).is_err());
        assert!(backend.persist(0, 4096).is_ok());
        assert!(backend.persist(0, 5000).is_err());
        assert!(!backend.is_persistent());
        assert!(VolatileBackend::new_persistent(64).is_persistent());
    }

    #[test]
    fn volatile_clones_share_storage() {
        let a = VolatileBackend::new(1024);
        let b = a.clone();
        a.write_at(0, b"shared").unwrap();
        let mut buf = [0u8; 6];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
    }

    #[test]
    fn shared_region_backend_round_trips_between_hosts() {
        use cxl::{CoherenceMode, LinkConfig, SharedRegion, Type3Device};
        const MIB: u64 = 1024 * 1024;
        let device = Arc::new(Type3Device::new("pooled", 8 * MIB, LinkConfig::gen5_x16()));
        let region = Arc::new(
            SharedRegion::new(device, 1024, 4 * MIB, CoherenceMode::SoftwareManaged).unwrap(),
        );
        let a = SharedRegionBackend::new(Arc::clone(&region), 0);
        assert_eq!(a.capacity(), 4 * MIB);
        assert_eq!(a.host(), 0);
        a.write_at(64, b"far memory").unwrap();
        a.persist(64, 10).unwrap();
        // `persist` is media durability, not publication: host 1 still needs
        // the software-coherence handshake to be entitled to the bytes.
        assert_eq!(region.version(), 0);
        region.attach(0).publish();
        let b = SharedRegionBackend::new(Arc::clone(&region), 1);
        region.attach(1).acquire();
        let mut buf = [0u8; 10];
        b.read_at(64, &mut buf).unwrap();
        assert_eq!(&buf, b"far memory");
        // Bounds are the window, not the device.
        assert!(a.write_at(4 * MIB - 4, &[0u8; 8]).is_err());
        let mut big = vec![0u8; 16];
        assert!(b.read_at(4 * MIB - 8, &mut big).is_err());
        assert!(a.is_persistent());
        assert!(b.describe().contains("host 1"));
    }

    #[test]
    fn in_place_and_staged_apply_agree() {
        // The volatile backend computes in its store; wrapped by a crash,
        // which does not forward `apply_at`, it takes the provided staging
        // path. Both see the same bytes and write the same result, over a
        // range of several chunks and staging pieces.
        let size = 512 * 1024;
        let volatile = VolatileBackend::new(size);
        let crash = Crash::new();
        let staged = crash.wrap(Arc::new(VolatileBackend::new(size)));
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let backends: [(&str, &dyn PoolBackend); 2] =
            [("in place", &volatile), ("staged", staged.as_ref())];
        for (name, backend) in backends {
            backend.write_at(1000, &data).unwrap();
            let (mut pieces, calls) = (0, crash.calls());
            backend
                .apply_at(&[1000, 1004], 300_000, 150_000, &mut |ins, out| {
                    for ((o, a), b) in out.iter_mut().zip(ins[0]).zip(ins[1]) {
                        *o = a.wrapping_sub(*b);
                    }
                    pieces += 1;
                })
                .unwrap();
            assert!(pieces >= 3, "{name}: {pieces} pieces");
            if name == "staged" {
                // Five 32 KiB pieces, each a read per input and one write.
                assert_eq!((pieces, crash.calls() - calls), (5, 15));
            }
            let mut back = vec![0u8; 150_000];
            backend.read_at(300_000, &mut back).unwrap();
            for (i, &b) in back.iter().enumerate() {
                assert_eq!(b, data[i].wrapping_sub(data[i + 4]), "byte {i}");
            }
            // Refused: out of bounds, overlapping, three inputs.
            let mut ran = false;
            let mut mark = |_: &[&[u8]], _: &mut [u8]| ran = true;
            assert!(matches!(
                backend.apply_at(&[0], size - 10, 64, &mut mark),
                Err(PmemError::OutOfBounds { .. })
            ));
            assert!(matches!(
                backend.apply_at(&[u64::MAX - 10], 0, 64, &mut mark),
                Err(PmemError::SizeOverflow)
            ));
            assert!(matches!(
                backend.apply_at(&[300_100], 300_000, 150_000, &mut mark),
                Err(PmemError::Apply(_))
            ));
            assert!(matches!(
                backend.apply_at(&[0, 64, 128], 4096, 64, &mut mark),
                Err(PmemError::Apply(_))
            ));
            assert!(!ran);
        }
    }

    /// A crash-wrapped 4 KiB backend, and the raw store under it.
    fn crashable() -> (Crash, VolatileBackend, SharedBackend) {
        let raw = VolatileBackend::new(4096);
        let crash = Crash::new();
        let wrapped = crash.wrap(Arc::new(raw.clone()));
        (crash, raw, wrapped)
    }

    fn read8(backend: &dyn PoolBackend, offset: u64) -> [u8; 8] {
        let mut buf = [0u8; 8];
        backend.read_at(offset, &mut buf).unwrap();
        buf
    }

    #[test]
    fn unarmed_crash_forwards_and_counts_every_call() {
        let (crash, raw, backend) = crashable();
        backend.write_at(8, b"forwards").unwrap();
        backend.persist(8, 8).unwrap();
        assert_eq!(&read8(backend.as_ref(), 8), b"forwards");
        assert_eq!(&read8(&raw, 8), b"forwards");
        assert_eq!(crash.calls(), 3);
        // Shape queries are not device calls.
        assert_eq!(backend.capacity(), 4096);
        assert!(!backend.is_persistent());
        assert_eq!(backend.describe(), raw.describe());
        assert_eq!(crash.calls(), 3);
    }

    #[test]
    fn armed_crash_fails_its_call_and_a_torn_write_lands_half() {
        for torn in [false, true] {
            let (crash, raw, backend) = crashable();
            crash.arm(2, torn);
            backend.write_at(0, b"passes-0").unwrap();
            backend.persist(0, 8).unwrap();
            let err = backend.write_at(8, b"tornhalf").unwrap_err();
            assert!(err.is_injected_crash(), "{err}");
            let want: &[u8; 8] = if torn { b"torn\0\0\0\0" } else { &[0; 8] };
            assert_eq!(&read8(&raw, 8), want, "torn {torn}");
            assert_eq!(&read8(&raw, 0), b"passes-0");
            // Every later call fails too, whole, reads and persists alike.
            assert!(backend
                .write_at(16, b"too-late")
                .unwrap_err()
                .is_injected_crash());
            assert_eq!(read8(&raw, 16), [0; 8]);
            let mut buf = [0u8; 8];
            assert!(backend
                .read_at(0, &mut buf)
                .unwrap_err()
                .is_injected_crash());
            assert_eq!(buf, [0; 8]);
            assert!(backend.persist(0, 8).unwrap_err().is_injected_crash());
            assert_eq!(crash.calls(), 6);
        }
    }

    #[test]
    fn armed_crash_tears_only_writes() {
        // A read or a persist the crash lands on fails whole.
        let (crash, raw, backend) = crashable();
        raw.write_at(0, b"on-media").unwrap();
        crash.arm(0, true);
        let mut buf = [0u8; 8];
        assert!(backend
            .read_at(0, &mut buf)
            .unwrap_err()
            .is_injected_crash());
        assert_eq!(buf, [0; 8]);
        crash.revive();
        crash.arm(0, true);
        assert!(backend.persist(0, 8).unwrap_err().is_injected_crash());
    }

    #[test]
    fn one_crash_counts_every_wrapped_backend_in_one_sequence() {
        let (crash, raw, first) = crashable();
        let other = VolatileBackend::new(4096);
        let second = crash.wrap(Arc::new(other.clone()));
        // Calls 0 and 1 pass, call 2 is the first backend's, call 3 the
        // second's.
        crash.arm(2, false);
        first.write_at(0, b"first-01").unwrap();
        second.write_at(0, b"second-1").unwrap();
        assert!(first
            .write_at(8, b"first-02")
            .unwrap_err()
            .is_injected_crash());
        assert!(second
            .write_at(8, b"second-2")
            .unwrap_err()
            .is_injected_crash());
        assert_eq!(&read8(&raw, 0), b"first-01");
        assert_eq!(&read8(&other, 0), b"second-1");
        assert_eq!(read8(&raw, 8), [0; 8]);
        assert_eq!(read8(&other, 8), [0; 8]);
        assert_eq!(crash.calls(), 4);
    }

    #[test]
    fn revived_host_passes_every_call_through_again() {
        let (crash, raw, backend) = crashable();
        crash.arm(0, false);
        assert!(backend
            .write_at(0, b"dead-now")
            .unwrap_err()
            .is_injected_crash());
        crash.revive();
        backend.write_at(0, b"revived!").unwrap();
        backend.persist(0, 8).unwrap();
        assert_eq!(&read8(backend.as_ref(), 0), b"revived!");
        assert_eq!(&read8(&raw, 0), b"revived!");
        // Arming counts from the revival on.
        crash.arm(1, false);
        backend.persist(0, 8).unwrap();
        assert!(backend.persist(0, 8).unwrap_err().is_injected_crash());
    }

    #[test]
    fn sweep_explores_every_position_whole_then_torn() {
        // An "op" of three calls: positions 0..=3 with whole writes, then
        // with torn ones; position 3 runs the op to its end.
        let mut seen = Vec::new();
        let positions = Crash::sweep(|k, torn| {
            let (crash, _, backend) = crashable();
            crash.arm(k, torn);
            let crashed = (0..3u64)
                .try_for_each(|i| backend.write_at(i * 8, b"one-call"))
                .is_err();
            seen.push((k, torn, crashed));
            crashed
        });
        assert_eq!(positions, 8);
        let want: Vec<_> = [false, true]
            .into_iter()
            .flat_map(|torn| (0..4).map(move |k| (k, torn, k < 3)))
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn overflow_offsets_are_rejected() {
        let backend = VolatileBackend::new(128);
        let mut buf = [0u8; 8];
        assert!(matches!(
            backend.read_at(u64::MAX - 2, &mut buf).unwrap_err(),
            PmemError::SizeOverflow
        ));
    }
}
