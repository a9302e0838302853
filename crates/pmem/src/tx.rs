//! Undo-log transactions.
//!
//! `pmemobj` transactions guarantee that "either all of the modifications are
//! successfully applied or none of them take effect" (paper §1.4). The
//! mechanism reproduced here is the classic undo log:
//!
//! 1. before a range is modified inside a transaction, its *old* contents are
//!    appended to a log area inside the pool and flushed;
//! 2. the modification is applied in place;
//! 3. on commit the modified ranges are flushed and the log is invalidated;
//! 4. on abort — or on pool open after a crash — the log is replayed in
//!    reverse, restoring the old contents.
//!
//! # Device calls
//!
//! On a CXL card every device read and every persist waits a round trip, so
//! a commit record costs a fixed handful of backend calls whatever the number
//! of ranges it logs. [`Transaction::write_all`] logs its ranges as one
//! batch, in this order:
//!
//! 1. the old bytes of each range are read into one buffer, laid out as the
//!    log's entries (`offset`, `len`, old bytes, back to back);
//! 2. the buffer is written to the log with one write;
//! 3. one persist makes every entry of the batch durable;
//! 4. the log header `(active, count)` is bumped with one 16-byte write;
//! 5. one persist makes the header durable, so the count never covers an
//!    entry that is not;
//! 6. the new data is written, one write per range.
//!
//! Commit then flushes each modified range, drains once, and clears the
//! header with one write and one persist. A batch leaves the same log bytes
//! as logging its ranges one at a time, so recovery reads either alike.
//!
//! A range the transaction body has already read through
//! [`Transaction::read`], before any write of the transaction touched it,
//! skips step 1's read: its old bytes are the ones that read returned. A
//! commit record that reads its fields, derives their new values and writes
//! them back reads each field once.
//!
//! A host may die at any of these calls, or at any call of the recovery that
//! follows: tests crash it at each one with
//! [`Crash`](crate::backend::Crash), and recovery restores a consistent state.

use crate::backend::SharedBackend;
use crate::error::PmemError;
use crate::persist::PersistTracker;
use crate::Result;
use std::ops::Range;
use std::sync::Arc;

const LOG_ACTIVE: u64 = 1;
const LOG_IDLE: u64 = 0;
/// Bytes reserved at the start of the log area for the (active, entry_count)
/// header, read and written as one word pair.
const LOG_HEADER: u64 = 16;
/// Per-entry header: target offset + length.
const ENTRY_HEADER: u64 = 16;

/// The undo-log area of a pool.
pub struct TxLog {
    backend: SharedBackend,
    tracker: Arc<PersistTracker>,
    start: u64,
    end: u64,
    /// The pool heap: the only bytes a transaction may log and recovery may
    /// restore.
    heap: Range<u64>,
}

impl TxLog {
    /// Creates a handle over `[start, end)` of the pool, guarding the ranges
    /// in `heap`.
    pub fn new(
        backend: SharedBackend,
        tracker: Arc<PersistTracker>,
        start: u64,
        end: u64,
        heap: Range<u64>,
    ) -> Self {
        TxLog {
            backend,
            tracker,
            start,
            end,
            heap,
        }
    }

    /// Refuses an undo range outside the heap. Transactions only modify heap
    /// objects, so a logged range over the pool header or the log itself is
    /// corruption, never something to replay.
    fn check_target(&self, offset: u64, len: u64) -> Result<()> {
        match offset.checked_add(len) {
            Some(end) if offset >= self.heap.start && end <= self.heap.end => Ok(()),
            _ => Err(PmemError::UndoLog("undo range outside the pool heap")),
        }
    }

    /// Formats the log as idle/empty.
    pub fn format(&self) -> Result<()> {
        self.write_header(LOG_IDLE, 0)
    }

    fn read_u64(&self, offset: u64) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.backend.read_at(offset, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn write_header(&self, active: u64, count: u64) -> Result<()> {
        let words = [active.to_le_bytes(), count.to_le_bytes()];
        self.backend.write_at(self.start, words.as_flattened())?;
        self.tracker.persist(&self.backend, self.start, LOG_HEADER)
    }

    fn header(&self) -> Result<(u64, u64)> {
        let mut words = [[0u8; 8]; 2];
        self.backend.read_at(self.start, words.as_flattened_mut())?;
        let [active, count] = words.map(u64::from_le_bytes);
        Ok((active, count))
    }

    /// Whether an uncommitted transaction's log is present.
    pub fn is_active(&self) -> Result<bool> {
        Ok(self.header()?.0 == LOG_ACTIVE)
    }

    /// Appends one undo entry per `(offset, len)` range, each holding the
    /// range's *current* contents, after the `entries` already logged at
    /// `cursor`. Returns the log cursor after the batch. A range `known`
    /// holds the current contents of takes them from there; any other range
    /// is read from the backend.
    ///
    /// Every target and the batch's size are checked before any byte moves.
    /// The entries are written with one write and persisted once, and only
    /// then does the header's count cover them.
    fn append(
        &self,
        cursor: u64,
        entries: u64,
        ranges: &[(u64, u64)],
        known: &ReadBytes,
    ) -> Result<u64> {
        let mut needed = 0u64;
        for &(offset, len) in ranges {
            self.check_target(offset, len)?;
            needed = needed.saturating_add(ENTRY_HEADER.saturating_add(len));
        }
        let next = cursor.saturating_add(needed);
        if next > self.end {
            return Err(PmemError::LogFull);
        }
        // The batch fits in the log area, so its length fits in usize.
        let mut batch = Vec::with_capacity(needed as usize);
        for &(offset, len) in ranges {
            batch.extend_from_slice(&offset.to_le_bytes());
            batch.extend_from_slice(&len.to_le_bytes());
            match known.get(offset, len) {
                Some(old) => batch.extend_from_slice(old),
                None => {
                    let old_at = batch.len();
                    batch.resize(old_at + len as usize, 0);
                    // in-bounds: the resize above appended exactly `len` bytes.
                    self.backend.read_at(offset, &mut batch[old_at..])?;
                }
            }
        }
        self.backend.write_at(cursor, &batch)?;
        self.tracker.persist(&self.backend, cursor, needed)?;
        // Publish the batch: bump the count (and mark active) only after the
        // entries are durable, so recovery never replays a torn entry.
        self.write_header(LOG_ACTIVE, entries + ranges.len() as u64)?;
        Ok(next)
    }

    /// Replays the log in reverse, restoring pre-transaction contents, then
    /// clears it. Returns `true` if anything was rolled back.
    ///
    /// Undo entries hold absolute old contents and the header is cleared
    /// last, so a pass cut short by a crash leaves the log active, and the
    /// next pass replays every entry again and converges.
    pub fn recover(&self) -> Result<bool> {
        let (active, count) = self.header()?;
        if active != LOG_ACTIVE || count == 0 {
            if active == LOG_ACTIVE {
                self.write_header(LOG_IDLE, 0)?;
            }
            return Ok(false);
        }
        // Walk the entries forward collecting their positions, then undo in
        // reverse. The count, lengths and targets come from media, so each
        // is bounded before anything is allocated or replayed.
        let fits = self.end.saturating_sub(self.start + LOG_HEADER) / ENTRY_HEADER;
        if count > fits {
            return Err(PmemError::UndoLog("entry count exceeds the log area"));
        }
        let mut entries = Vec::with_capacity(count as usize);
        let mut cursor = self.start + LOG_HEADER;
        for _ in 0..count {
            let offset = self.read_u64(cursor)?;
            let len = self.read_u64(cursor + 8)?;
            let data_at = cursor + ENTRY_HEADER;
            cursor = data_at
                .checked_add(len)
                .filter(|&next| next <= self.end)
                .ok_or(PmemError::UndoLog("entry overruns the log area"))?;
            self.check_target(offset, len)?;
            entries.push((data_at, offset, len));
        }
        for &(data_at, offset, len) in entries.iter().rev() {
            let mut old = vec![0u8; len as usize];
            self.backend.read_at(data_at, &mut old)?;
            self.backend.write_at(offset, &old)?;
            self.tracker.persist(&self.backend, offset, len)?;
        }
        self.write_header(LOG_IDLE, 0)?;
        Ok(true)
    }

    fn clear(&self) -> Result<()> {
        self.write_header(LOG_IDLE, 0)
    }

    /// Whether an undo entry could hold `[offset, offset + len)`: the range
    /// lies in the heap and fits in the log area with its entry header.
    fn could_log(&self, offset: u64, len: u64) -> bool {
        let room = self
            .end
            .saturating_sub(self.start + LOG_HEADER + ENTRY_HEADER);
        len <= room && self.check_target(offset, len).is_ok()
    }
}

/// Whether `[a, a + a_len)` and `[b, b + b_len)` share a byte.
fn overlaps(a: u64, a_len: u64, b: u64, b_len: u64) -> bool {
    a < b.saturating_add(b_len) && b < a.saturating_add(a_len)
}

/// The bytes a transaction read through [`Transaction::read`] from ranges
/// none of its writes had touched yet: each one is the range's contents
/// before the transaction, until a write of the transaction overlaps it.
#[derive(Default)]
struct ReadBytes(Vec<(u64, Vec<u8>)>);

impl ReadBytes {
    /// The contents of `[offset, offset + len)`, when one read covered it.
    fn get(&self, offset: u64, len: u64) -> Option<&[u8]> {
        self.0.iter().rev().find_map(|(at, bytes)| {
            let start = usize::try_from(offset.checked_sub(*at)?).ok()?;
            let end = start.checked_add(usize::try_from(len).ok()?)?;
            bytes.get(start..end)
        })
    }

    /// Forgets every read `[offset, offset + len)` overlaps: a write there
    /// made its bytes stale.
    fn forget(&mut self, offset: u64, len: u64) {
        self.0
            .retain(|(at, bytes)| !overlaps(*at, bytes.len() as u64, offset, len));
    }
}

/// An in-flight transaction (obtained from [`crate::PmemPool::run_tx`]).
pub struct Transaction<'a> {
    backend: &'a SharedBackend,
    tracker: &'a Arc<PersistTracker>,
    log: &'a TxLog,
    cursor: u64,
    /// The logged ranges, one undo entry each, in log order.
    modified: Vec<(u64, u64)>,
    /// What `read` returned from ranges no write had touched yet: the old
    /// bytes the log takes for them instead of reading them again.
    read: ReadBytes,
    finished: bool,
}

impl<'a> Transaction<'a> {
    pub(crate) fn begin(
        backend: &'a SharedBackend,
        tracker: &'a Arc<PersistTracker>,
        log: &'a TxLog,
    ) -> Result<Self> {
        if log.is_active()? {
            return Err(PmemError::TransactionState(
                "another transaction's log is still active (recovery required)",
            ));
        }
        Ok(Transaction {
            backend,
            tracker,
            log,
            cursor: log.start + LOG_HEADER,
            modified: Vec::new(),
            read: ReadBytes::default(),
            finished: false,
        })
    }

    /// Logs the current contents of `ranges` as one undo batch. A refused
    /// batch logs nothing.
    fn log_batch(&mut self, ranges: impl IntoIterator<Item = (u64, u64)>) -> Result<()> {
        if self.finished {
            return Err(PmemError::TransactionState("transaction already finished"));
        }
        let logged = self.modified.len();
        self.modified.extend(ranges);
        // in-bounds: `logged` is the length before the extend.
        let batch = &self.modified[logged..];
        if batch.is_empty() {
            return Ok(());
        }
        self.cursor = self
            .log
            .append(self.cursor, logged as u64, batch, &self.read)
            .inspect_err(|_| self.modified.truncate(logged))?;
        Ok(())
    }

    /// Registers `[offset, offset+len)` for rollback: its current contents are
    /// appended to the undo log (the `TX_ADD_RANGE` equivalent).
    pub fn add_range(&mut self, offset: u64, len: u64) -> Result<()> {
        self.log_batch([(offset, len)])
    }

    /// Transactionally writes each `(offset, data)`: the old contents of
    /// every range are logged first, as one batch, then the new data is
    /// written in place. A range outside the heap, or a batch the log cannot
    /// hold, is refused before any byte moves. A range this transaction has
    /// [`read`](Self::read) and not yet written is logged from the bytes
    /// that read returned, without reading it again.
    pub fn write_all(&mut self, writes: &[(u64, &[u8])]) -> Result<()> {
        self.log_batch(
            writes
                .iter()
                .map(|&(offset, data)| (offset, data.len() as u64)),
        )?;
        for &(offset, data) in writes {
            self.read.forget(offset, data.len() as u64);
            self.backend.write_at(offset, data)?;
        }
        Ok(())
    }

    /// Transactionally writes `data` at `offset`: the one-range
    /// [`write_all`](Self::write_all).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.write_all(&[(offset, data)])
    }

    /// Reads within the transaction (sees its own writes).
    ///
    /// When no range this transaction logged overlaps the read, and an undo
    /// entry could hold it, the transaction keeps the bytes: a later write
    /// of a range inside it logs them as its old contents. A write of the
    /// transaction that overlaps the read forgets them.
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.backend.read_at(offset, buf)?;
        let len = buf.len() as u64;
        let untouched = !self
            .modified
            .iter()
            .any(|&(at, logged)| overlaps(at, logged, offset, len));
        if untouched && self.log.could_log(offset, len) {
            self.read.0.push((offset, buf.to_vec()));
        }
        Ok(())
    }

    /// Number of ranges registered so far.
    pub fn ranges(&self) -> usize {
        self.modified.len()
    }

    /// Commits: flush every modified range, fence once, then invalidate the
    /// log.
    pub(crate) fn commit(mut self) -> Result<()> {
        for &(offset, len) in &self.modified {
            self.tracker.flush(self.backend, offset, len)?;
        }
        self.tracker.drain();
        self.log.clear()?;
        self.finished = true;
        Ok(())
    }

    /// Aborts: restore old contents from the log and invalidate it.
    pub(crate) fn abort(mut self) -> Result<()> {
        self.log.recover()?;
        self.finished = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Crash, PoolBackend, SharedBackend, VolatileBackend};
    use crate::pool::{PmemPool, HEADER_SIZE, LOG_SIZE};
    use std::sync::Arc;

    const POOL_SIZE: u64 = 2 * 1024 * 1024;

    fn pool_pair() -> (VolatileBackend, PmemPool) {
        let backend = VolatileBackend::new_persistent(POOL_SIZE);
        let shared: SharedBackend = Arc::new(backend.clone());
        let pool = PmemPool::create_with_backend(shared, "tx-test").unwrap();
        (backend, pool)
    }

    fn read8(pool: &PmemPool, offset: u64) -> [u8; 8] {
        let mut buf = [0u8; 8];
        pool.read(offset, &mut buf).unwrap();
        buf
    }

    // A one-range transaction makes ten backend calls, in order: the log
    // header read, the old bytes' read, the entry batch's write and persist,
    // the header's write and persist, the data write, its flush, and the
    // clear's write and persist.
    /// The persist that makes the log header durable: the append's last call.
    const HEADER_PERSIST: u64 = 5;
    /// The clear of the log header: the commit's last write.
    const LOG_CLEAR: u64 = 8;
    /// The persist of the clear: the record is durable already.
    const CLEAR_PERSIST: u64 = 9;

    /// The raw store, the host's crash, and a pool over the wrapped store.
    fn crashable_pair() -> (VolatileBackend, Crash, PmemPool) {
        let backend = VolatileBackend::new_persistent(POOL_SIZE);
        let crash = Crash::new();
        let pool = PmemPool::create_with_backend(crash.wrap(Arc::new(backend.clone())), "tx-test")
            .unwrap();
        (backend, crash, pool)
    }

    #[test]
    fn ordinal_is_the_position_in_all() {
        // A crash armed at k lands on the transaction's k-th call: k calls
        // pass, that one fails, and the dead host makes no further call.
        for k in 0..=10u64 {
            let (_, crash, pool) = crashable_pair();
            let a = pool.alloc_bytes(64).unwrap().offset;
            crash.arm(k, false);
            let before = crash.calls();
            let result = pool.run_tx(|tx| tx.write(a, b"mutated!"));
            assert_eq!(crash.calls() - before, (k + 1).min(10), "position {k}");
            assert_eq!(result.is_ok(), k == 10, "position {k}");
        }
    }

    #[test]
    fn committed_transaction_applies_all_writes() {
        let (_, pool) = pool_pair();
        let a = pool.alloc_bytes(64).unwrap();
        let b = pool.alloc_bytes(64).unwrap();
        pool.run_tx(|tx| {
            tx.write(a.offset, b"AAAAAAAA")?;
            tx.write(b.offset, b"BBBBBBBB")?;
            assert_eq!(tx.ranges(), 2);
            Ok(())
        })
        .unwrap();
        assert_eq!(&read8(&pool, a.offset), b"AAAAAAAA");
        assert_eq!(&read8(&pool, b.offset), b"BBBBBBBB");
    }

    #[test]
    fn failed_transaction_rolls_back_all_writes() {
        let (_, pool) = pool_pair();
        let a = pool.alloc_bytes(64).unwrap();
        let b = pool.alloc_bytes(64).unwrap();
        pool.write(a.offset, b"original").unwrap();
        pool.write(b.offset, b"unchangd").unwrap();
        let result: Result<()> = pool.run_tx(|tx| {
            tx.write(a.offset, b"mutated!")?;
            tx.write(b.offset, b"mutated!")?;
            Err(PmemError::TransactionState("application-level failure"))
        });
        assert!(result.is_err());
        assert_eq!(&read8(&pool, a.offset), b"original");
        assert_eq!(&read8(&pool, b.offset), b"unchangd");
    }

    #[test]
    fn transaction_reads_see_own_writes() {
        let (_, pool) = pool_pair();
        let a = pool.alloc_bytes(64).unwrap();
        pool.run_tx(|tx| {
            tx.write(a.offset, b"visible!")?;
            let mut buf = [0u8; 8];
            tx.read(a.offset, &mut buf)?;
            assert_eq!(&buf, b"visible!");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn crash_before_commit_is_rolled_back_on_reopen() {
        let (backend, crash, pool) = crashable_pair();
        let a = pool.alloc_bytes(64).unwrap();
        pool.write(a.offset, b"checkpnt").unwrap();
        pool.persist(a.offset, 8).unwrap();

        crash.arm(LOG_CLEAR, false);
        let result: Result<()> = pool.run_tx(|tx| {
            tx.write(a.offset, b"halfdone")?;
            Ok(())
        });
        assert!(matches!(result.unwrap_err(), PmemError::InjectedCrash(_)));
        drop(pool);

        // Reopen over the same bytes: recovery must restore the old contents.
        let shared: SharedBackend = Arc::new(backend);
        let reopened = PmemPool::open_with_backend(shared, "tx-test").unwrap();
        assert_eq!(&read8(&reopened, a.offset), b"checkpnt");
        // And the log must be clean so new transactions can run.
        reopened
            .run_tx(|tx| tx.write(a.offset, b"newvalue"))
            .unwrap();
        assert_eq!(&read8(&reopened, a.offset), b"newvalue");
    }

    #[test]
    fn crash_after_log_append_preserves_old_data() {
        let (backend, crash, pool) = crashable_pair();
        let a = pool.alloc_bytes(64).unwrap();
        pool.write(a.offset, b"original").unwrap();
        crash.arm(HEADER_PERSIST, false);
        let result: Result<()> = pool.run_tx(|tx| {
            tx.add_range(a.offset, 8)?;
            // The crash fires inside add_range, so this write never happens.
            unreachable!("the crash must fire before this closure continues");
        });
        assert!(result.unwrap_err().is_injected_crash());
        drop(pool);
        let shared: SharedBackend = Arc::new(backend);
        let reopened = PmemPool::open_with_backend(shared, "tx-test").unwrap();
        assert_eq!(&read8(&reopened, a.offset), b"original");
    }

    #[test]
    fn crash_after_commit_keeps_new_data() {
        let (backend, crash, pool) = crashable_pair();
        let a = pool.alloc_bytes(64).unwrap();
        pool.write(a.offset, b"original").unwrap();
        crash.arm(CLEAR_PERSIST, false);
        let result: Result<()> = pool.run_tx(|tx| tx.write(a.offset, b"durable!"));
        assert!(result.unwrap_err().is_injected_crash());
        drop(pool);
        let shared: SharedBackend = Arc::new(backend);
        let reopened = PmemPool::open_with_backend(shared, "tx-test").unwrap();
        assert_eq!(&read8(&reopened, a.offset), b"durable!");
    }

    #[test]
    fn recovery_is_idempotent() {
        let (backend, crash, pool) = crashable_pair();
        let a = pool.alloc_bytes(64).unwrap();
        pool.write(a.offset, b"original").unwrap();
        crash.arm(LOG_CLEAR, false);
        let _ = pool.run_tx(|tx| tx.write(a.offset, b"mutated!"));
        drop(pool);
        let shared: SharedBackend = Arc::new(backend);
        let reopened = PmemPool::open_with_backend(shared, "tx-test").unwrap();
        assert!(!reopened.recover().unwrap());
        assert!(!reopened.recover().unwrap());
        assert_eq!(&read8(&reopened, a.offset), b"original");
    }

    #[test]
    fn crash_during_recovery_then_reopen_converges() {
        let (backend, crash, pool) = crashable_pair();
        let a = pool.alloc_bytes(64).unwrap();
        let b = pool.alloc_bytes(64).unwrap();
        pool.write(a.offset, b"original").unwrap();
        pool.write(b.offset, b"untouchd").unwrap();
        pool.persist(a.offset, 8).unwrap();
        pool.persist(b.offset, 8).unwrap();

        // Strand an active log with two undo entries: two one-range appends
        // (the header read, then six calls each), both flushes, and the
        // crash lands on the clear.
        crash.arm(15, false);
        let _ = pool.run_tx(|tx| {
            tx.write(a.offset, b"mutatedA")?;
            tx.write(b.offset, b"mutatedB")?;
            Ok(())
        });
        crash.revive();
        assert!(pool.tx_log_active().unwrap());

        // The first recovery pass dies after replaying one entry (the header
        // read, two reads per entry, then b's read, write and persist): the
        // log stays active and the pool is mid-rollback (b restored, a still
        // mutated).
        crash.arm(8, false);
        assert!(pool.recover().unwrap_err().is_injected_crash());
        crash.revive();
        assert!(pool.tx_log_active().unwrap());
        assert_eq!(&read8(&pool, b.offset), b"untouchd");
        assert_eq!(&read8(&pool, a.offset), b"mutatedA");
        drop(pool);

        // "Reboot": open runs a full recovery pass, which replays every entry
        // again (re-restoring b is harmless — entries hold absolute contents).
        let shared: SharedBackend = Arc::new(backend);
        let reopened = PmemPool::open_with_backend(shared, "tx-test").unwrap();
        assert_eq!(&read8(&reopened, a.offset), b"original");
        assert_eq!(&read8(&reopened, b.offset), b"untouchd");
        // Recovery run again (twice) must be a no-op and leave the log idle.
        assert!(!reopened.recover().unwrap());
        assert!(!reopened.recover().unwrap());
        assert!(!reopened.tx_log_active().unwrap());
        assert_eq!(&read8(&reopened, a.offset), b"original");
        // And new transactions run normally.
        reopened
            .run_tx(|tx| tx.write(a.offset, b"newvalue"))
            .unwrap();
        assert_eq!(&read8(&reopened, a.offset), b"newvalue");
    }

    #[test]
    fn recovery_crash_point_is_inert_when_log_is_idle() {
        // Nothing to recover: the pass reads the log header and stops, so a
        // crash armed at its next call is never reached.
        let (_, crash, pool) = crashable_pair();
        crash.arm(1, false);
        let before = crash.calls();
        assert!(!pool.recover().unwrap());
        assert_eq!(crash.calls() - before, 1);
        crash.revive();
        assert!(!pool.tx_log_active().unwrap());
    }

    #[test]
    fn log_overflow_is_reported() {
        let (_, pool) = pool_pair();
        let big = pool.alloc_bytes(1024 * 1024).unwrap();
        let result: Result<()> = pool.run_tx(|tx| {
            // The log area is 256 KiB: snapshotting 1 MiB cannot fit.
            tx.add_range(big.offset, 1024 * 1024)?;
            Ok(())
        });
        assert!(matches!(result.unwrap_err(), PmemError::LogFull));
        // Pool remains usable.
        pool.run_tx(|tx| tx.write(big.offset, b"still ok")).unwrap();
    }

    /// Creates a 1 MiB pool, overwrites the start of its log area with
    /// `words` (header: active, count; then entries: offset, len, data), and
    /// reopens it, which runs recovery over that log.
    fn reopen_with_log(words: &[u64]) -> (VolatileBackend, Result<PmemPool>) {
        let backend = VolatileBackend::new_persistent(1024 * 1024);
        let shared: SharedBackend = Arc::new(backend.clone());
        drop(PmemPool::create_with_backend(shared, "tx-test").unwrap());
        let log: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        backend.write_at(HEADER_SIZE, &log).unwrap();
        let shared: SharedBackend = Arc::new(backend.clone());
        (backend, PmemPool::open_with_backend(shared, "tx-test"))
    }

    const HEAP: u64 = HEADER_SIZE + LOG_SIZE;

    #[test]
    fn recovery_refuses_an_entry_count_beyond_the_log_area() {
        let (_, opened) = reopen_with_log(&[LOG_ACTIVE, 1 << 40]);
        assert!(matches!(opened, Err(PmemError::UndoLog(_))));
    }

    #[test]
    fn recovery_refuses_an_entry_longer_than_the_log_area() {
        let (_, opened) = reopen_with_log(&[LOG_ACTIVE, 1, HEAP, 1 << 40]);
        assert!(matches!(opened, Err(PmemError::UndoLog(_))));
    }

    #[test]
    fn recovery_refuses_an_entry_length_that_wraps() {
        let (_, opened) = reopen_with_log(&[LOG_ACTIVE, 1, HEAP, u64::MAX - 8]);
        assert!(matches!(opened, Err(PmemError::UndoLog(_))));
    }

    #[test]
    fn recovery_refuses_an_entry_outside_the_heap() {
        // A well-formed entry whose target is the pool header.
        let (backend, opened) = reopen_with_log(&[LOG_ACTIVE, 1, 0, 8, 0xDEAD_BEEF]);
        assert!(matches!(opened, Err(PmemError::UndoLog(_))));
        // Nothing was replayed: the header still carries the pool magic.
        let mut magic = [0u8; 8];
        backend.read_at(0, &mut magic).unwrap();
        assert_eq!(u64::from_le_bytes(magic), crate::pool::POOL_MAGIC);
    }

    #[test]
    fn add_range_refuses_targets_outside_the_heap() {
        let (_, pool) = pool_pair();
        for (offset, len) in [(0, 8), (HEADER_SIZE, 8), (u64::MAX - 3, 8), (HEAP - 4, 8)] {
            let result: Result<()> = pool.run_tx(|tx| tx.add_range(offset, len));
            assert!(matches!(result, Err(PmemError::UndoLog(_))), "{offset:#x}");
            // Nothing was logged.
            assert!(!pool.tx_log_active().unwrap());
        }
        let a = pool.alloc_bytes(64).unwrap();
        pool.run_tx(|tx| tx.add_range(a.offset, 64)).unwrap();
    }

    /// The whole undo-log area: header, then entries.
    fn log_area(backend: &VolatileBackend) -> Vec<u8> {
        let mut bytes = vec![0u8; LOG_SIZE as usize];
        backend.read_at(HEADER_SIZE, &mut bytes).unwrap();
        bytes
    }

    /// Reopens the pool over `backend`'s bytes, running recovery.
    fn reopen(backend: &VolatileBackend) -> PmemPool {
        let shared: SharedBackend = Arc::new(backend.clone());
        PmemPool::open_with_backend(shared, "tx-test").unwrap()
    }

    /// A pool with two persisted 8-byte targets holding "original" and
    /// "untouchd".
    fn pool_with_two_targets() -> (VolatileBackend, Crash, PmemPool, u64, u64) {
        let (backend, crash, pool) = crashable_pair();
        let a = pool.alloc_bytes(64).unwrap().offset;
        let b = pool.alloc_bytes(64).unwrap().offset;
        pool.write(a, b"original").unwrap();
        pool.write(b, b"untouchd").unwrap();
        pool.persist(a, 8).unwrap();
        pool.persist(b, 8).unwrap();
        (backend, crash, pool, a, b)
    }

    /// The two-range batch: one log append for both ranges.
    fn write_batch(pool: &PmemPool, a: u64, b: u64) -> Result<()> {
        pool.run_tx(|tx| tx.write_all(&[(a, b"mutatedA"), (b, b"mutatedB")]))
    }

    // The batch makes thirteen calls: the log header read, both old ranges'
    // reads, the batch's write and persist, the header's write and persist,
    // both data writes, both flushes, and the clear's write and persist.
    /// The batch's first data write: the log append is durable.
    const BATCH_DATA: u64 = 7;
    /// The clear of the batch's log header.
    const BATCH_CLEAR: u64 = 11;

    #[test]
    fn batched_write_is_atomic_at_every_transaction_crash_point() {
        let (mut committed, mut last) = (0, (false, false));
        let positions = Crash::sweep(|k, torn| {
            let (backend, crash, pool, a, b) = pool_with_two_targets();
            crash.arm(k, torn);
            let result = write_batch(&pool, a, b);
            if let Err(e) = &result {
                assert!(e.is_injected_crash(), "{e}");
            }
            crash.revive();
            if k <= BATCH_DATA && !(k == BATCH_DATA && torn) {
                // Before the batch's first data write nothing moved.
                assert_eq!(&read8(&pool, a), b"original", "{k}/{torn}");
                assert_eq!(&read8(&pool, b), b"untouchd", "{k}/{torn}");
            }
            drop(pool);
            let reopened = reopen(&backend);
            let landed = &read8(&reopened, a) == b"mutatedA";
            let expected: [&[u8; 8]; 2] = if landed {
                [b"mutatedA", b"mutatedB"]
            } else {
                [b"original", b"untouchd"]
            };
            assert_eq!(&read8(&reopened, a), expected[0], "{k}/{torn}");
            assert_eq!(&read8(&reopened, b), expected[1], "{k}/{torn}");
            assert!(!reopened.tx_log_active().unwrap());
            // Once durable at a position, durable at every later one.
            assert!(landed || last != (torn, true), "{k}/{torn} rolled back");
            last = (torn, landed);
            committed += usize::from(landed);
            result.is_err()
        });
        println!("tx batch: {positions} crash positions, {committed} committed");
        assert_eq!(positions, 28);
        // The clear's persist and the uncrashed run; torn, the clear too.
        assert_eq!(committed, 5);
    }

    #[test]
    fn crash_during_recovery_of_a_batch_converges() {
        let positions = Crash::sweep(|r, torn| {
            let (backend, crash, pool, a, b) = pool_with_two_targets();
            crash.arm(BATCH_CLEAR, false);
            assert!(write_batch(&pool, a, b).unwrap_err().is_injected_crash());
            crash.revive();
            assert!(pool.tx_log_active().unwrap());

            // The recovery pass dies at its r-th call.
            crash.arm(r, torn);
            let crashed = pool.recover().is_err();
            crash.revive();
            if r == 8 && !torn {
                // The first pass died after replaying the batch's last entry
                // (the header read, two reads per entry, then b's read,
                // write and persist).
                assert!(pool.tx_log_active().unwrap());
                assert_eq!(&read8(&pool, a), b"mutatedA");
                assert_eq!(&read8(&pool, b), b"untouchd");
            }

            // The next pass converges, and so does a reopen after it.
            pool.recover().unwrap();
            assert!(!pool.tx_log_active().unwrap());
            drop(pool);
            let reopened = reopen(&backend);
            assert_eq!(&read8(&reopened, a), b"original", "{r}/{torn}");
            assert_eq!(&read8(&reopened, b), b"untouchd", "{r}/{torn}");
            crashed
        });
        println!("tx batch recovery: {positions} crash positions");
        assert_eq!(positions, 28);
    }

    #[test]
    fn refused_batch_writes_no_byte() {
        let (backend, _, pool, a, _) = pool_with_two_targets();
        // A block larger than the whole log area.
        let big = pool.alloc_bytes(LOG_SIZE).unwrap().offset;
        let big_before = vec![0x5Au8; LOG_SIZE as usize];
        pool.write(big, &big_before).unwrap();
        let too_large = vec![0xA5u8; LOG_SIZE as usize];
        let header_before = {
            let mut bytes = [0u8; 8];
            backend.read_at(0, &mut bytes).unwrap();
            bytes
        };
        let log_before = log_area(&backend);

        // The second range targets the pool header, outside the heap.
        let outside: Result<()> =
            pool.run_tx(|tx| tx.write_all(&[(a, b"mutatedA"), (0, b"mutated!")]));
        assert!(matches!(outside, Err(PmemError::UndoLog(_))));
        // The second range does not fit in the log.
        let overflow: Result<()> =
            pool.run_tx(|tx| tx.write_all(&[(a, b"mutatedA"), (big, &too_large)]));
        assert!(matches!(overflow, Err(PmemError::LogFull)));

        assert_eq!(&read8(&pool, a), b"original");
        let mut header_after = [0u8; 8];
        backend.read_at(0, &mut header_after).unwrap();
        assert_eq!(header_after, header_before);
        let mut big_after = vec![0u8; LOG_SIZE as usize];
        pool.read(big, &mut big_after).unwrap();
        assert!(big_after == big_before, "the large range moved");
        assert!(log_area(&backend) == log_before, "the log area moved");
        assert!(!pool.tx_log_active().unwrap());
    }

    #[test]
    fn a_batch_leaves_the_log_of_one_range_at_a_time() {
        let stranded = |batched: bool| {
            let (backend, crash, pool, a, b) = pool_with_two_targets();
            // The crash lands on the clear of the log: call 11 of the batch,
            // call 13 of two appends (the header read, five calls each, two
            // flushes).
            crash.arm(if batched { BATCH_CLEAR } else { 13 }, false);
            let result: Result<()> = pool.run_tx(|tx| {
                if batched {
                    tx.write_all(&[(a, b"mutatedA"), (b, b"mutatedB")])
                } else {
                    tx.add_range(a, 8)?;
                    tx.add_range(b, 8)
                }
            });
            assert!(result.unwrap_err().is_injected_crash());
            log_area(&backend)
        };
        let batched = stranded(true);
        // The stranded log is active and covers exactly the two entries.
        assert_eq!(batched[..8], LOG_ACTIVE.to_le_bytes());
        assert_eq!(batched[8..16], 2u64.to_le_bytes());
        assert!(batched == stranded(false), "log formats differ");
    }

    #[test]
    fn a_range_read_before_its_first_write_is_logged_from_that_read() {
        // Each body writes `a` twice and aborts. Reading it first, or reading
        // it between the writes, leaves the same log bytes as not reading it
        // at all, and the abort restores the same bytes. Only a read before
        // the first write spares a backend read: the one between the writes
        // sees the transaction's own write, which the log must not take as
        // old contents.
        let run = |read_first: bool, read_between: bool| {
            let (backend, crash, pool, a, b) = pool_with_two_targets();
            let before = crash.calls();
            let result: Result<()> = pool.run_tx(|tx| {
                let mut wide = [0u8; 16];
                if read_first {
                    // A wider read than the write covers it too.
                    tx.read(a, &mut wide)?;
                    assert_eq!(&wide[..8], b"original");
                }
                tx.write(a, b"mutated1")?;
                if read_between {
                    tx.read(a, &mut wide)?;
                    assert_eq!(&wide[..8], b"mutated1");
                }
                tx.write(a, b"mutated2")?;
                // A read of another range serves no write of `a`.
                tx.read(b, &mut wide[..8])?;
                Err(PmemError::TransactionState("abort"))
            });
            assert!(matches!(result, Err(PmemError::TransactionState(_))));
            assert_eq!(&read8(&pool, a), b"original");
            (crash.calls() - before, log_area(&backend))
        };
        let (plain_calls, plain_log) = run(false, false);
        let (first_calls, first_log) = run(true, false);
        let (between_calls, between_log) = run(false, true);
        assert!(
            first_log == plain_log,
            "a read before the write moved the log"
        );
        assert!(
            between_log == plain_log,
            "a read after the write moved the log"
        );
        // The read before the first write costs no call; the one after it
        // costs its own.
        assert_eq!(first_calls, plain_calls);
        assert_eq!(between_calls, plain_calls + 1);
    }

    #[test]
    fn multiple_sequential_transactions() {
        let (_, pool) = pool_pair();
        let a = pool.alloc_bytes(64).unwrap();
        for i in 0..10u64 {
            pool.run_tx(|tx| tx.write(a.offset, &i.to_le_bytes()))
                .unwrap();
        }
        let mut buf = [0u8; 8];
        pool.read(a.offset, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 9);
    }
}
