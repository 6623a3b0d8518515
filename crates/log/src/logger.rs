//! Loggers: a live streaming logger (MyRocks role) and per-thread logs with
//! offline coalescing (Cicada role).

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use c5_common::{SeqNo, Timestamp, TxnId};

use crate::record::{explode_txn, LogRecord, TxnEntry};
use crate::segment::{Segment, SegmentBuilder};
use crate::ship::LogShipper;

/// How long a [`StreamingLogger`] lets a committed record wait in a
/// partially filled segment: a segment ships when it reaches its record
/// target or when its oldest record has waited this long, whichever comes
/// first. This bounds the commit → ship hop on a write-light primary, where
/// filling a segment by size alone can take tens of milliseconds.
pub const SEAL_DEADLINE: Duration = Duration::from_millis(1);

/// Why a [`StreamingLogger`] sealed a segment (the `reason` label of
/// `log_segments_sealed_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SealReason {
    /// The segment reached its record target.
    Size = 0,
    /// The segment's oldest record waited [`SEAL_DEADLINE`].
    Deadline = 1,
    /// An explicit [`StreamingLogger::flush`] or [`StreamingLogger::close`].
    Flush = 2,
}

impl SealReason {
    pub(crate) fn label(self) -> &'static str {
        match self {
            SealReason::Size => "size",
            SealReason::Deadline => "deadline",
            SealReason::Flush => "flush",
        }
    }
}

/// Live, totally ordered logger used by the two-phase-locking primary.
///
/// The primary's executor threads call [`StreamingLogger::append`] while
/// holding their write locks (or immediately after validation), so the append
/// order *is* the commit order — exactly the property the backup's protocols
/// rely on. Segments are pushed to the attached [`LogShipper`] when they
/// reach their record target or when their oldest record has waited
/// [`SEAL_DEADLINE`]; one sealer thread per logger enforces the deadline.
pub struct StreamingLogger {
    shared: Arc<Shared>,
    sealer: Option<JoinHandle<()>>,
}

/// State shared between the appending threads and the sealer thread.
struct Shared {
    inner: Mutex<StreamingInner>,
    /// Wakes the sealer when the open segment gains its first record or the
    /// logger stops.
    sealer_wake: Condvar,
    shipper: LogShipper,
}

struct StreamingInner {
    builder: SegmentBuilder,
    next_seq: SeqNo,
    next_commit_ts: Timestamp,
    appended_txns: u64,
    /// When the open segment's oldest record was appended (`None` while the
    /// segment is empty).
    open_since: Option<Instant>,
    /// Set by `close`, `crash` and drop: nothing ships afterwards and the
    /// sealer exits.
    stopped: bool,
}

impl Shared {
    /// Ships a sealed segment. Called with the logger lock held: the order of
    /// segments on the wire must equal log order, and releasing the lock
    /// first would let a concurrent append (or the sealer) overtake between
    /// building a segment and shipping it (the backup's per-row `prev_seq`
    /// stamping silently corrupts on reordered segments). Backpressure from
    /// a bounded shipper deliberately propagates to committers. A stopped
    /// logger ships nothing: a crashed primary's unshipped tail is lost.
    fn ship(&self, inner: &mut StreamingInner, segment: Segment, reason: SealReason) {
        inner.open_since = None;
        if inner.stopped {
            return;
        }
        self.shipper.note_sealed(reason);
        self.shipper.ship(segment);
    }

    /// Seals whatever the open segment holds (nothing if it is empty).
    fn seal_open(&self, inner: &mut StreamingInner, reason: SealReason) {
        if let Some(segment) = inner.builder.flush() {
            self.ship(inner, segment, reason);
        }
    }

    /// The sealer thread: sleeps until the open segment's deadline and ships
    /// it if it is still open then. Exits once the logger stops.
    fn seal_on_deadline(&self, deadline: Duration) {
        let mut inner = self.inner.lock();
        while !inner.stopped {
            match inner.open_since {
                None => self.sealer_wake.wait(&mut inner),
                Some(since) => {
                    let waited = since.elapsed();
                    if waited >= deadline {
                        self.seal_open(&mut inner, SealReason::Deadline);
                    } else {
                        self.sealer_wake.wait_for(&mut inner, deadline - waited);
                    }
                }
            }
        }
    }

    /// Stops the logger: nothing ships afterwards and the sealer exits.
    fn stop(&self, inner: &mut StreamingInner) {
        inner.stopped = true;
        self.sealer_wake.notify_one();
    }
}

impl StreamingLogger {
    /// Creates a logger that packs `segment_records` records per segment and
    /// ships them through `shipper`, sealing early at [`SEAL_DEADLINE`].
    pub fn new(segment_records: usize, shipper: LogShipper) -> Self {
        Self::resume_at(segment_records, shipper, SeqNo::ZERO)
    }

    /// Creates a logger that resumes a promoted log: sequence numbers and
    /// commit timestamps continue from `cut` (a promoted replica's exposed
    /// cut), so the new primary's log is a seamless continuation of the old
    /// one — a backup that applied the old log through `cut` can keep
    /// consuming this logger's segments without a gap, and every new commit
    /// timestamp exceeds every version the promoted store holds (the backup
    /// installs versions at log positions, all `<= cut`).
    pub fn resume_at(segment_records: usize, shipper: LogShipper, cut: SeqNo) -> Self {
        Self::with_seal_deadline(segment_records, shipper, cut, SEAL_DEADLINE)
    }

    fn with_seal_deadline(
        segment_records: usize,
        shipper: LogShipper,
        cut: SeqNo,
        deadline: Duration,
    ) -> Self {
        let shared = Arc::new(Shared {
            inner: Mutex::new(StreamingInner {
                builder: SegmentBuilder::new(segment_records),
                next_seq: cut,
                next_commit_ts: Timestamp(cut.as_u64()),
                appended_txns: 0,
                open_since: None,
                stopped: false,
            }),
            sealer_wake: Condvar::new(),
            shipper,
        });
        let sealer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("c5-log-sealer".into())
                .spawn(move || shared.seal_on_deadline(deadline))
                .expect("spawn log sealer")
        };
        Self {
            shared,
            sealer: Some(sealer),
        }
    }

    /// Appends a committed transaction. The commit timestamp is assigned here
    /// (commit order = log order for the 2PL engine) and returned.
    ///
    /// Returns the assigned commit timestamp.
    pub fn append(&self, txn: TxnId, writes: Vec<c5_common::RowWrite>) -> Timestamp {
        self.append_tokened(txn, writes).0
    }

    /// Appends a committed transaction and also returns its **causal token**:
    /// the sequence number of the transaction's last write (its boundary).
    /// A backup whose exposed cut reaches the token has made this
    /// transaction visible, so the token is what a session carries to get
    /// read-your-writes from the replica fleet. A write-free transaction's
    /// token is the boundary of the previous transaction (nothing new to
    /// wait for).
    pub fn append_tokened(
        &self,
        txn: TxnId,
        writes: Vec<c5_common::RowWrite>,
    ) -> (Timestamp, SeqNo) {
        let shared = &*self.shared;
        let mut inner = shared.inner.lock();
        inner.next_commit_ts = inner.next_commit_ts.next();
        let commit_ts = inner.next_commit_ts;
        let entry = TxnEntry::new(txn, commit_ts, writes);
        let (records, next_seq) = explode_txn(&entry, inner.next_seq);
        inner.next_seq = next_seq;
        inner.appended_txns += 1;
        if !records.is_empty() {
            match inner.builder.push_txn(records) {
                Some(segment) => shared.ship(&mut inner, segment, SealReason::Size),
                None if inner.open_since.is_none() => {
                    // The segment just opened: start its deadline.
                    inner.open_since = Some(Instant::now());
                    shared.sealer_wake.notify_one();
                }
                None => {}
            }
        }
        (commit_ts, inner.next_seq)
    }

    /// Ships any buffered records as a final segment now, without waiting
    /// for the seal deadline.
    pub fn flush(&self) {
        let mut inner = self.shared.inner.lock();
        self.shared.seal_open(&mut inner, SealReason::Flush);
    }

    /// Number of transactions appended so far.
    pub fn appended_txns(&self) -> u64 {
        self.shared.inner.lock().appended_txns
    }

    /// Highest write sequence number assigned so far. Includes records still
    /// buffered in the current segment, i.e. assigned but not yet shipped.
    pub fn last_seq(&self) -> SeqNo {
        self.shared.inner.lock().next_seq
    }

    /// Flushes the buffered tail and closes the shipping channel, signalling
    /// end-of-log to the replica.
    ///
    /// The final flush and the channel close happen under one logger lock:
    /// the flushed tail is shipped exactly once, and no concurrent `append`,
    /// `flush` or deadline seal can slip another segment onto the wire after
    /// it (the replica's `BoundaryLedger` hard-asserts segment contiguity, so
    /// a post-tail segment would fail loudly there). Idempotent — a second
    /// close finds a stopped logger and an already-closed shipper.
    pub fn close(&self) {
        let mut inner = self.shared.inner.lock();
        self.shared.seal_open(&mut inner, SealReason::Flush);
        self.shared.shipper.close();
        self.shared.stop(&mut inner);
    }

    /// Simulates a primary crash: closes the shipping channel *without*
    /// flushing the buffered tail. Records already assigned sequence numbers
    /// but not yet shipped are lost, exactly as an asynchronously replicated
    /// primary loses its unshipped tail on failure; the sealer never ships
    /// them afterwards. The failover experiments use this to kill the
    /// primary mid-workload.
    pub fn crash(&self) {
        // Take the logger lock so no append or seal is mid-ship while the
        // wire closes (the wire sees a clean, segment-aligned prefix).
        let mut inner = self.shared.inner.lock();
        self.shared.shipper.close();
        self.shared.stop(&mut inner);
    }
}

impl Drop for StreamingLogger {
    fn drop(&mut self) {
        self.shared.stop(&mut self.shared.inner.lock());
        if let Some(sealer) = self.sealer.take() {
            let _ = sealer.join();
        }
    }
}

/// A per-thread log, as kept by the MVTSO primary's client threads
/// (Section 7.1). Entries are appended locally with no synchronization and
/// coalesced offline.
#[derive(Debug, Default)]
pub struct ThreadLog {
    entries: Vec<TxnEntry>,
}

impl ThreadLog {
    /// Creates an empty per-thread log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a committed transaction.
    pub fn append(&mut self, entry: TxnEntry) {
        self.entries.push(entry);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consumes the log and returns its entries.
    pub fn into_entries(self) -> Vec<TxnEntry> {
        self.entries
    }
}

/// Coalesces per-thread logs into a single, totally ordered log (sorted by
/// commit timestamp — ordering MVTSO transactions by timestamp yields a valid
/// serial schedule, Section 7.1) and packs it into segments.
pub fn coalesce(thread_logs: Vec<ThreadLog>, segment_records: usize) -> Vec<Segment> {
    let mut entries: Vec<TxnEntry> = thread_logs
        .into_iter()
        .flat_map(ThreadLog::into_entries)
        .collect();
    entries.sort_by_key(|e| e.commit_ts);
    segments_from_entries(&entries, segment_records)
}

/// Packs already-ordered transaction entries into segments.
pub fn segments_from_entries(entries: &[TxnEntry], segment_records: usize) -> Vec<Segment> {
    let mut builder = SegmentBuilder::new(segment_records);
    let mut next_seq = SeqNo::ZERO;
    let mut segments = Vec::new();
    for entry in entries {
        if entry.is_empty() {
            continue;
        }
        let (records, seq) = explode_txn(entry, next_seq);
        next_seq = seq;
        if let Some(seg) = builder.push_txn(records) {
            segments.push(seg);
        }
    }
    if let Some(seg) = builder.flush() {
        segments.push(seg);
    }
    segments
}

/// Flattens segments back into a single record stream (useful for tests and
/// for the reference replay in the consistency checker).
pub fn flatten(segments: &[Segment]) -> Vec<LogRecord> {
    segments
        .iter()
        .flat_map(|s| s.records.iter().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ship::LogShipper;
    use c5_common::{RowRef, RowWrite, Value};

    fn write(k: u64, v: u64) -> RowWrite {
        RowWrite::update(RowRef::new(0, k), Value::from_u64(v))
    }

    #[test]
    fn streaming_logger_assigns_commit_order_and_ships() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(2, shipper);

        let ts1 = logger.append(TxnId(1), vec![write(1, 1)]);
        let ts2 = logger.append(TxnId(2), vec![write(2, 2)]);
        assert!(ts2 > ts1);
        logger.close();

        let segments = receiver.drain();
        let records = flatten(&segments);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].txn, TxnId(1));
        assert_eq!(records[1].txn, TxnId(2));
        assert!(records[0].seq < records[1].seq);
        assert_eq!(logger.appended_txns(), 2);
    }

    #[test]
    fn append_tokened_returns_the_txn_boundary() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(4, shipper);
        let (ts1, tok1) = logger.append_tokened(TxnId(1), vec![write(1, 1), write(2, 1)]);
        let (ts2, tok2) = logger.append_tokened(TxnId(2), vec![write(3, 2)]);
        assert_eq!(tok1, SeqNo(2), "token is the seq of the txn's last write");
        assert_eq!(tok2, SeqNo(3));
        assert!(ts2 > ts1);
        // A write-free transaction carries the previous boundary: nothing new
        // for a session to wait on.
        let (_, tok3) = logger.append_tokened(TxnId(3), vec![]);
        assert_eq!(tok3, tok2);
        logger.close();
        drop(receiver);
    }

    /// A deadline no test outlives, so a partial segment stays buffered
    /// until the test flushes, closes or crashes the logger.
    const NEVER: Duration = Duration::from_secs(3600);

    fn sealed(obs: &c5_obs::Obs, reason: &str) -> u64 {
        obs.metrics
            .snapshot()
            .counter(&format!("log_segments_sealed_total{{reason=\"{reason}\"}}"))
            .unwrap_or(0)
    }

    #[test]
    fn streaming_logger_flush_ships_partial_segment() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::with_seal_deadline(100, shipper, SeqNo::ZERO, NEVER);
        logger.append(TxnId(1), vec![write(1, 1)]);
        // Nothing shipped yet: segment target not reached, deadline far off.
        assert_eq!(receiver.try_len(), 0);
        logger.flush();
        assert_eq!(flatten(&receiver.drain_available()).len(), 1);
    }

    #[test]
    fn partial_segment_ships_at_the_deadline_without_flush() {
        let obs = std::sync::Arc::new(c5_obs::Obs::new());
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(100, shipper.with_obs(std::sync::Arc::clone(&obs)));
        let appended = Instant::now();
        logger.append(TxnId(1), vec![write(1, 1), write(2, 1)]);
        let segment = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("the sealer ships a partial segment at its deadline");
        assert!(
            appended.elapsed() >= SEAL_DEADLINE,
            "a partial segment never ships before its deadline"
        );
        assert_eq!(segment.len(), 2);
        assert!(segment.transactions_are_whole());
        assert_eq!(sealed(&obs, "deadline"), 1);
        assert_eq!(sealed(&obs, "size") + sealed(&obs, "flush"), 0);
    }

    #[test]
    fn full_segment_never_waits_for_the_deadline() {
        let obs = std::sync::Arc::new(c5_obs::Obs::new());
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::with_seal_deadline(
            2,
            shipper.with_obs(std::sync::Arc::clone(&obs)),
            SeqNo::ZERO,
            NEVER,
        );
        logger.append(TxnId(1), vec![write(1, 1)]);
        assert_eq!(receiver.try_len(), 0);
        // The second record fills the segment: it is on the wire when the
        // append returns.
        logger.append(TxnId(2), vec![write(2, 2)]);
        assert_eq!(flatten(&receiver.drain_available()).len(), 2);
        assert_eq!(sealed(&obs, "size"), 1);
        logger.append(TxnId(3), vec![write(3, 3)]);
        logger.close();
        assert_eq!(flatten(&receiver.drain()).len(), 1);
        assert_eq!(sealed(&obs, "flush"), 1);
        assert_eq!(sealed(&obs, "deadline"), 0);
    }

    #[test]
    fn tail_shipping_is_exactly_once_across_flush_and_close() {
        // A segment target that is never reached, so every ship is a tail
        // ship: repeated flushes and closes must deliver each record exactly
        // once and never produce an empty segment on the wire.
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(100, shipper);
        logger.append(TxnId(1), vec![write(1, 1)]);
        logger.flush();
        logger.flush(); // nothing buffered: must ship nothing
        logger.append(TxnId(2), vec![write(2, 2)]);
        logger.close();
        logger.close(); // idempotent: no duplicate tail, no empty segment

        let segments = receiver.drain();
        assert!(
            segments.iter().all(|s| !s.is_empty()),
            "no empty segment may reach the wire"
        );
        let seqs: Vec<u64> = flatten(&segments).iter().map(|r| r.seq.as_u64()).collect();
        assert_eq!(seqs, vec![1, 2], "each record ships exactly once");
    }

    #[test]
    fn concurrent_appends_during_close_keep_the_wire_a_contiguous_prefix() {
        use std::sync::Arc;
        // Appenders race with each other, with the deadline sealer and with
        // close(); whatever reaches the wire must be a gapless, ordered
        // prefix of the assigned sequence numbers made of whole transactions
        // and non-empty segments (appends that lose the race are dropped
        // whole, never reordered or duplicated). Appenders pause now and
        // then so partial segments outlive the deadline and the sealer ships
        // some of them while appends and the close are in flight.
        for round in 0..8u64 {
            let (shipper, receiver) = LogShipper::unbounded();
            let logger = Arc::new(StreamingLogger::new(8, shipper));
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let logger = Arc::clone(&logger);
                    scope.spawn(move || {
                        for i in 0..25u64 {
                            let writes = (0..=(i + t) % 3)
                                .map(|w| write(t * 1000 + i * 10 + w, i))
                                .collect();
                            logger.append(TxnId(1 + t * 100 + i), writes);
                            if i % 5 == round % 5 {
                                std::thread::sleep(Duration::from_micros(300 * (1 + t)));
                            }
                        }
                    });
                }
                std::thread::sleep(Duration::from_micros(500 * (1 + round)));
                logger.close();
            });
            let segments = receiver.drain();
            assert!(
                segments.iter().all(|s| !s.is_empty()),
                "no empty segment may reach the wire"
            );
            assert!(
                segments.iter().all(Segment::transactions_are_whole),
                "segments must carry whole transactions"
            );
            let seqs: Vec<u64> = flatten(&segments).iter().map(|r| r.seq.as_u64()).collect();
            let expect: Vec<u64> = (1..=seqs.len() as u64).collect();
            assert_eq!(seqs, expect, "the wire must carry a gapless log prefix");
        }
    }

    #[test]
    fn crash_loses_the_buffered_tail() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::with_seal_deadline(2, shipper, SeqNo::ZERO, NEVER);
        logger.append(TxnId(1), vec![write(1, 1), write(2, 1)]); // ships: fills a segment
        logger.append(TxnId(2), vec![write(3, 2)]); // buffered
        logger.crash();
        // Only the shipped segment survives; the buffered tail is lost even
        // though its sequence numbers were assigned.
        assert_eq!(flatten(&receiver.drain()).len(), 2);
        assert_eq!(logger.last_seq(), SeqNo(3));
        // A close after the crash must not resurrect the tail.
        logger.close();
        assert!(receiver.drain().is_empty());
    }

    #[test]
    fn the_sealer_exits_on_close_crash_and_drop() {
        let sealer_exits = |stop: &dyn Fn(&StreamingLogger)| {
            let (shipper, receiver) = LogShipper::unbounded();
            let logger = StreamingLogger::with_seal_deadline(1_000, shipper, SeqNo::ZERO, NEVER);
            logger.append(TxnId(1), vec![write(1, 1)]);
            stop(&logger);
            let sealer = logger.sealer.as_ref().expect("the sealer runs until drop");
            let exited = Instant::now();
            while !sealer.is_finished() {
                assert!(
                    exited.elapsed() < Duration::from_secs(10),
                    "the sealer must exit once the logger stops"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(logger);
            flatten(&receiver.drain()).len()
        };
        assert_eq!(
            sealer_exits(&StreamingLogger::close),
            1,
            "close ships the tail"
        );
        assert_eq!(sealer_exits(&StreamingLogger::crash), 0, "a crash loses it");
        // Drop without close or crash: joins the sealer, ships nothing.
        let (shipper, receiver) = LogShipper::unbounded();
        let logger = StreamingLogger::with_seal_deadline(1_000, shipper, SeqNo::ZERO, NEVER);
        logger.append(TxnId(1), vec![write(1, 1)]);
        drop(logger);
        assert!(receiver.drain().is_empty());
    }

    #[test]
    fn the_sealer_never_ships_what_a_crash_lost() {
        use crate::archive::LogArchive;
        use std::sync::Arc;
        // A crash races the deadline: the buffered tail either shipped
        // before the crash (it is on the wire and in the archive) or is lost
        // for good. Nothing assigned before the crash may reach the wire,
        // the archive or the seal counters afterwards — not even once the
        // deadline has long passed, and not via a later append or close.
        for round in 0..12u64 {
            let obs = Arc::new(c5_obs::Obs::new());
            let archive = Arc::new(LogArchive::new());
            let (shipper, receiver) = LogShipper::unbounded();
            let shipper = shipper
                .with_archive(Arc::clone(&archive))
                .with_obs(Arc::clone(&obs));
            let logger = StreamingLogger::new(1_000, shipper);
            logger.append(TxnId(1), vec![write(1, 1), write(2, 1)]);
            std::thread::sleep(Duration::from_micros(200 * (round % 4)));
            logger.crash();
            let archived = archive.last_seq();
            let seals = obs.metrics.snapshot().counter("ship_segments_total");
            std::thread::sleep(SEAL_DEADLINE * 5);
            logger.append(TxnId(2), vec![write(3, 2)]);
            std::thread::sleep(SEAL_DEADLINE * 5);
            logger.close();
            assert_eq!(archive.last_seq(), archived, "round {round}");
            assert_eq!(
                obs.metrics.snapshot().counter("ship_segments_total"),
                seals,
                "round {round}: nothing ships after a crash"
            );
            let wire = flatten(&receiver.drain());
            assert_eq!(
                wire.last().map_or(SeqNo::ZERO, |r| r.seq),
                archived,
                "round {round}: the wire is exactly what shipped before the crash"
            );
            // Dropping the logger joins its (already exited) sealer.
            drop(logger);
        }
    }

    #[test]
    fn resume_at_continues_seq_and_commit_order() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::resume_at(1, shipper, SeqNo(10));
        let ts = logger.append(TxnId(1), vec![write(5, 5)]);
        assert_eq!(ts, Timestamp(11));
        logger.close();
        let records = flatten(&receiver.drain());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, SeqNo(11));
        assert_eq!(logger.last_seq(), SeqNo(11));
    }

    #[test]
    fn read_only_transactions_are_not_logged() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(1, shipper);
        logger.append(TxnId(1), vec![]);
        logger.close();
        assert!(flatten(&receiver.drain()).is_empty());
        assert_eq!(logger.appended_txns(), 1);
        assert_eq!(logger.last_seq(), SeqNo::ZERO);
    }

    #[test]
    fn coalesce_orders_by_commit_timestamp() {
        let mut t1 = ThreadLog::new();
        let mut t2 = ThreadLog::new();
        t1.append(TxnEntry::new(TxnId(1), Timestamp(30), vec![write(1, 1)]));
        t1.append(TxnEntry::new(TxnId(2), Timestamp(10), vec![write(2, 2)]));
        t2.append(TxnEntry::new(TxnId(3), Timestamp(20), vec![write(3, 3)]));

        let segments = coalesce(vec![t1, t2], 2);
        let records = flatten(&segments);
        let commit_order: Vec<u64> = records.iter().map(|r| r.commit_ts.as_u64()).collect();
        assert_eq!(commit_order, vec![10, 20, 30]);
        // Sequence numbers are contiguous from 1.
        let seqs: Vec<u64> = records.iter().map(|r| r.seq.as_u64()).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        // Every segment keeps transactions whole.
        assert!(segments.iter().all(Segment::transactions_are_whole));
    }

    #[test]
    fn segments_from_entries_skips_empty_transactions() {
        let entries = vec![
            TxnEntry::new(TxnId(1), Timestamp(1), vec![]),
            TxnEntry::new(TxnId(2), Timestamp(2), vec![write(1, 1)]),
        ];
        let segments = segments_from_entries(&entries, 8);
        assert_eq!(flatten(&segments).len(), 1);
    }
}
