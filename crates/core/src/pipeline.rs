//! The shared replication-pipeline runtime.
//!
//! Every backup protocol in this workspace — C5 in both modes and every
//! baseline in `c5-baselines` — is the same machine with a different ordering
//! policy: segments arrive from the log shipper (**ingest**), a single
//! scheduler thread turns them into work items and routes them to queues
//! (**schedule**), worker threads execute the items under the protocol's
//! ordering constraints (**apply**), and a periodic thread advances the
//! transaction-aligned cut that read-only transactions may observe
//! (**expose**) — unless the policy publishes cuts from its workers, as
//! faithful C5 does, in which case the periodic thread only collects
//! garbage. This module owns that machine once — the threads, the
//! channels, the shutdown/drain protocol, the garbage-collection horizon —
//! so each protocol only supplies a [`PipelinePolicy`]: what a work item is,
//! how segments become items, and what "apply one item" means.
//!
//! ## Batched hand-off
//!
//! The scheduler→worker and worker→watermark edges are the backup's hottest
//! path: every log record crosses both. Two disciplines keep their per-record
//! cost amortized, and policies are expected to follow them:
//!
//! * **Dispatch in batches.** A work item should carry a *run* of records —
//!   a whole sub-segment, or a run of consecutive whole transactions
//!   (`ReplicaConfig::dispatch_batch_records`) — so the queue hand-off cost
//!   is paid once per batch, not once per record. Batches must respect the
//!   policy's ordering unit: a batch never splits a transaction, and the
//!   scheduler publishes any dispatch watermark *before* enqueueing the
//!   batch, so a cut chosen from that watermark can never land mid-item.
//! * **Publish watermarks per item, not per record.** Workers buffer the
//!   applied-marks of one work item and flush them in a single batched
//!   watermark update when the item completes. This is safe because workers
//!   never *wait* on a watermark — only the expose thread does, and it only
//!   waits for records of items that were dispatched before its target was
//!   chosen, all of which flush when those items finish. The publication
//!   *order* inside a flush still matters; see
//!   [`crate::progress::WatermarkTracker::mark_applied_batch`].
//!
//! Two pieces of shared policy infrastructure also live here:
//!
//! * [`RowWaitList`] — the event-driven realization of the per-row FIFO
//!   queues specified in [`crate::design_queues`]. A write whose per-row
//!   predecessor has not been installed parks on that predecessor's log
//!   position; the worker that installs the predecessor wakes it (and
//!   installs it, cascading down the row's chain). This replaces the
//!   busy-retry deferral loop the replica used to run: a deferred write costs
//!   one hash-map insert instead of unbounded re-checks, and it moves into
//!   the wait list instead of being cloned out of its segment.
//! * [`GcDriver`] — advances a version-garbage-collection horizon trailing
//!   the exposed cut, so long-running workloads do not grow version chains
//!   without bound (the expose stage drives it after every cut).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use c5_common::{SeqNo, Timestamp};
use c5_log::{LogRecord, Segment};
use c5_obs::{Counter, Histogram, Obs, PipelineStage, TraceEvent};
use c5_storage::MvStore;

use crate::lag::LagTracker;
use crate::replica::{ClonedConcurrencyControl, Promotion, ReadView, ReplicaMetrics};

/// Cross-stage signals shared by every thread of one pipeline instance.
#[derive(Debug, Default)]
pub struct PipelineSignals {
    shutdown: AtomicBool,
    draining: AtomicBool,
}

impl PipelineSignals {
    /// Whether the runtime has asked every stage to stop. Long waits inside
    /// [`PipelinePolicy::apply`] and [`PipelinePolicy::expose`] must poll
    /// this and bail out.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Whether the pipeline is draining: ingestion has ended and `finish` is
    /// waiting for the final prefix to be applied and exposed. The expose
    /// stage ticks at full speed while this is set.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    fn start_draining(&self) {
        self.draining.store(true, Ordering::Release);
    }
}

/// Where the schedule stage's work items are queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePlan {
    /// One queue shared by every worker; workers pick up items in dispatch
    /// order (C5's one-worker-per-transaction mode, KuaFu, single-threaded).
    Shared {
        /// Queue capacity (items).
        capacity: usize,
    },
    /// One queue per worker; the policy routes each item to a lane
    /// (C5-Cicada's round-robin segments, coarse-grain conflict groups).
    PerWorker {
        /// Per-queue capacity (items).
        capacity: usize,
    },
}

/// Construction-time options for a [`PipelineRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Number of apply-stage worker threads.
    pub workers: usize,
    /// Queue topology between the schedule and apply stages.
    pub queue: QueuePlan,
    /// Capacity (in segments) of the ingest channel; bounded so a hopelessly
    /// slow replica exerts backpressure on the shipper.
    pub ingest_capacity: usize,
    /// Interval between expose-stage cuts.
    pub expose_interval: Duration,
    /// Prefix for thread names (the protocol's report name works well).
    pub label: &'static str,
}

/// The schedule stage's outlet: routes work items into the apply stage's
/// queues. One sink lives for the lifetime of the scheduler thread, so
/// policies that route round-robin get a persistent cursor for free.
pub struct WorkSink<T> {
    lanes: Vec<Sender<T>>,
    next: usize,
    gone: bool,
}

impl<T> WorkSink<T> {
    fn new(lanes: Vec<Sender<T>>) -> Self {
        Self {
            lanes,
            next: 0,
            gone: false,
        }
    }

    /// Number of queues (1 under [`QueuePlan::Shared`], `workers` under
    /// [`QueuePlan::PerWorker`]).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Sends an item to the next lane round-robin (equivalently: to the
    /// shared queue). Blocks for backpressure when the lane is full.
    pub fn send(&mut self, item: T) {
        let lane = self.next % self.lanes.len();
        self.next = self.next.wrapping_add(1);
        self.send_to(lane, item);
    }

    /// Sends an item to a specific lane (taken modulo the lane count).
    /// Blocks for backpressure when the lane is full.
    pub fn send_to(&mut self, lane: usize, item: T) {
        if self.lanes[lane % self.lanes.len()].send(item).is_err() {
            self.gone = true;
        }
    }

    /// Whether a send failed because the workers exited (shutdown).
    pub fn workers_gone(&self) -> bool {
        self.gone
    }

    /// Total items currently queued across every lane (the schedule stage's
    /// output backlog).
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(|lane| lane.len()).sum()
    }
}

/// Cached observability handles for one pipeline stage: each completed unit
/// of work costs one histogram record, one counter bump, and one typed
/// trace event — a handful of relaxed atomics plus an uncontended
/// per-thread ring push, never a registry lock. Instrumentation is per
/// *item* (segment, batch, cut), never per record, so the apply path's
/// per-record cost is unchanged to within noise.
struct StageObs {
    obs: Arc<Obs>,
    stage: PipelineStage,
    dwell: Arc<Histogram>,
    items: Arc<Counter>,
}

impl StageObs {
    fn new(obs: &Arc<Obs>, stage: PipelineStage) -> Self {
        let dwell = obs
            .metrics
            .histogram(&format!("stage_dwell_ns{{stage=\"{}\"}}", stage.name()));
        let items = obs
            .metrics
            .counter(&format!("stage_items_total{{stage=\"{}\"}}", stage.name()));
        Self {
            obs: Arc::clone(obs),
            stage,
            dwell,
            items,
        }
    }

    fn record(&self, dwell: Duration, queue_depth: usize) {
        let dwell_ns = u64::try_from(dwell.as_nanos()).unwrap_or(u64::MAX);
        self.dwell.record(dwell_ns);
        self.items.inc();
        self.obs.trace.record(TraceEvent::Stage {
            stage: self.stage,
            dwell_ns,
            queue_depth,
        });
    }
}

/// A backup protocol's ordering policy, run by a [`PipelineRuntime`].
///
/// The runtime calls [`schedule`](Self::schedule) on its single scheduler
/// thread in log order, [`apply`](Self::apply) on worker threads, and
/// [`expose`](Self::expose)/[`collect_garbage`](Self::collect_garbage) on
/// its expose thread. All other methods are progress probes the runtime (and
/// the shared [`ClonedConcurrencyControl`] implementation) read from any
/// thread.
pub trait PipelinePolicy: Send + Sync + 'static {
    /// The unit of work flowing from the schedule stage to the apply stage.
    type Item: Send + 'static;

    /// Short protocol name for reports (e.g. `"c5"`, `"kuafu"`).
    fn name(&self) -> &'static str;

    /// Turns one ingested segment into work items, in log order. The policy
    /// owns the segment: records should *move* into items, never be cloned.
    fn schedule(&self, segment: Segment, sink: &mut WorkSink<Self::Item>);

    /// Executes one work item under the protocol's ordering constraints.
    /// Long waits must poll `signals` and abandon the item on shutdown.
    fn apply(&self, worker: usize, item: Self::Item, signals: &PipelineSignals);

    /// Advances the exposed, transaction-aligned cut if progress allows.
    /// Waits inside (the whole-database cut) must poll `signals`.
    fn expose(&self, signals: &PipelineSignals);

    /// Reclaims storage the exposed cut has moved past (usually by driving a
    /// [`GcDriver`]). Called by the expose stage after every cut.
    fn collect_garbage(&self) {}

    /// Wakes any worker blocked inside [`apply`](Self::apply); called once
    /// when shutdown is signalled.
    fn interrupt(&self) {}

    /// Largest contiguous applied log position.
    fn applied_seq(&self) -> SeqNo;

    /// Largest position the expose stage is allowed to reach right now (the
    /// boundary watermark). `finish` waits until the exposed cut gets here.
    fn exposure_target(&self) -> SeqNo;

    /// Largest position exposed to read-only transactions.
    fn exposed_seq(&self) -> SeqNo;

    /// Last log position handed to [`schedule`](Self::schedule) so far (the
    /// end of the log once ingestion is done).
    fn shipped_seq(&self) -> SeqNo;

    /// A read view of the exposed state.
    fn read_view(&self) -> Box<dyn ReadView>;

    /// Replication-lag samples collected so far.
    fn lag(&self) -> Arc<LagTracker>;

    /// Progress counters.
    fn metrics(&self) -> ReplicaMetrics;

    /// The observability sink the runtime records per-stage dwell
    /// histograms and trace events into. Policies constructed from a
    /// `ReplicaConfig` should return the config's sink; the default is the
    /// process-wide [`Obs::global`].
    fn obs(&self) -> Arc<Obs> {
        Arc::clone(Obs::global())
    }

    /// The backup's store. Promotion
    /// ([`ClonedConcurrencyControl::promote`]) hands it to the new primary
    /// once the pipeline is sealed; checkpoints export from it.
    fn store(&self) -> &Arc<MvStore>;
}

/// The shared four-stage runtime: threads, queues, and the drain/shutdown
/// protocol, generic over a [`PipelinePolicy`].
///
/// Implements [`ClonedConcurrencyControl`] directly, so a protocol wrapper
/// only has to construct its policy, pick [`PipelineOptions`], and delegate
/// the trait (see [`delegate_replica_to_pipeline!`](crate::delegate_replica_to_pipeline)).
pub struct PipelineRuntime<P: PipelinePolicy> {
    policy: Arc<P>,
    signals: Arc<PipelineSignals>,
    // Segments travel with their enqueue instant so the scheduler can
    // attribute ingest dwell (time spent queued behind backpressure).
    ingest_tx: Mutex<Option<Sender<(Instant, Segment)>>>,
    ingest_done: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    finished: AtomicBool,
}

impl<P: PipelinePolicy> PipelineRuntime<P> {
    /// Starts the pipeline: spawns the scheduler, `options.workers` workers,
    /// and the expose thread.
    pub fn start(policy: Arc<P>, options: PipelineOptions) -> Self {
        assert!(options.workers > 0, "pipeline requires at least one worker");
        let signals = Arc::new(PipelineSignals::default());
        let ingest_done = Arc::new(AtomicBool::new(false));
        let (ingest_tx, ingest_rx) = bounded::<(Instant, Segment)>(options.ingest_capacity);
        let mut threads = Vec::with_capacity(options.workers + 2);

        let obs = policy.obs();
        let apply_obs = Arc::new(StageObs::new(&obs, PipelineStage::Apply));

        // Apply stage.
        let mut lane_txs: Vec<Sender<P::Item>> = Vec::new();
        {
            let mut spawn_worker = |worker: usize, rx: Receiver<P::Item>| {
                let policy = Arc::clone(&policy);
                let signals = Arc::clone(&signals);
                let apply_obs = Arc::clone(&apply_obs);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("{}-worker-{worker}", options.label))
                        .spawn(move || {
                            while let Ok(item) = rx.recv() {
                                let started = Instant::now();
                                policy.apply(worker, item, &signals);
                                apply_obs.record(started.elapsed(), rx.len());
                            }
                        })
                        .expect("spawn worker"),
                );
            };
            match options.queue {
                QueuePlan::Shared { capacity } => {
                    let (tx, rx) = bounded::<P::Item>(capacity);
                    lane_txs.push(tx);
                    for worker in 0..options.workers {
                        spawn_worker(worker, rx.clone());
                    }
                }
                QueuePlan::PerWorker { capacity } => {
                    for worker in 0..options.workers {
                        let (tx, rx) = bounded::<P::Item>(capacity);
                        lane_txs.push(tx);
                        spawn_worker(worker, rx);
                    }
                }
            }
        }

        // Schedule stage.
        {
            let policy = Arc::clone(&policy);
            let signals = Arc::clone(&signals);
            let ingest_done = Arc::clone(&ingest_done);
            let ingest_obs = StageObs::new(&obs, PipelineStage::Ingest);
            let schedule_obs = StageObs::new(&obs, PipelineStage::Schedule);
            let ingest_depth = obs.metrics.gauge("ingest_queue_depth");
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{}-scheduler", options.label))
                    .spawn(move || {
                        let mut sink = WorkSink::new(lane_txs);
                        while let Ok((enqueued, segment)) = ingest_rx.recv() {
                            let backlog = ingest_rx.len();
                            ingest_depth.set(backlog as i64);
                            ingest_obs.record(enqueued.elapsed(), backlog);
                            let started = Instant::now();
                            policy.schedule(segment, &mut sink);
                            schedule_obs.record(started.elapsed(), sink.queued());
                            if sink.workers_gone() || signals.shutdown_requested() {
                                break;
                            }
                        }
                        ingest_depth.set(0);
                        ingest_done.store(true, Ordering::Release);
                        // Dropping the sink closes the worker queues.
                    })
                    .expect("spawn scheduler"),
            );
        }

        // Expose stage.
        {
            let policy = Arc::clone(&policy);
            let signals = Arc::clone(&signals);
            let interval = options.expose_interval;
            let expose_obs = StageObs::new(&obs, PipelineStage::Expose);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{}-expose", options.label))
                    .spawn(move || expose_loop(policy, signals, interval, expose_obs))
                    .expect("spawn expose"),
            );
        }

        Self {
            policy,
            signals,
            ingest_tx: Mutex::new(Some(ingest_tx)),
            ingest_done,
            threads: Mutex::new(threads),
            finished: AtomicBool::new(false),
        }
    }

    /// The policy driving this pipeline.
    pub fn policy(&self) -> &Arc<P> {
        &self.policy
    }

    fn stop_threads(&self) {
        self.signals.request_shutdown();
        self.policy.interrupt();
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// The expose stage: tick frequently so shutdown is responsive, but only cut
/// at `interval` — except while draining, where every tick cuts so `finish`
/// converges quickly.
fn expose_loop<P: PipelinePolicy>(
    policy: Arc<P>,
    signals: Arc<PipelineSignals>,
    interval: Duration,
    expose_obs: StageObs,
) {
    let tick = interval.min(Duration::from_millis(1));
    let mut last_cut = Instant::now();
    loop {
        let shutting_down = signals.shutdown_requested();
        if last_cut.elapsed() >= interval || signals.draining() || shutting_down {
            // The expose stage's "queue" is the span of log positions whose
            // boundaries are applied but not yet visible to readers.
            let pending = policy
                .exposure_target()
                .as_u64()
                .saturating_sub(policy.exposed_seq().as_u64());
            let started = Instant::now();
            policy.expose(&signals);
            policy.collect_garbage();
            expose_obs.record(started.elapsed(), pending as usize);
            last_cut = Instant::now();
        }
        if shutting_down {
            // One final cut happened above; exit.
            return;
        }
        std::thread::sleep(if signals.draining() {
            Duration::from_micros(100)
        } else {
            tick
        });
    }
}

impl<P: PipelinePolicy> ClonedConcurrencyControl for PipelineRuntime<P> {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn apply_segment(&self, segment: Segment) {
        let guard = self.ingest_tx.lock();
        if let Some(tx) = guard.as_ref() {
            // A send error means the scheduler exited (shutdown); drop the
            // segment in that case.
            let _ = tx.send((Instant::now(), segment));
        }
    }

    fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        // Close the ingest channel so the scheduler (and then the workers)
        // drain and exit, then wait for every shipped write to be applied
        // and exposed.
        self.ingest_tx.lock().take();
        while !self.ingest_done.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(200));
        }
        let target = self.policy.shipped_seq();
        while self.policy.applied_seq() < target {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.signals.start_draining();
        while self.policy.exposed_seq() < self.policy.exposure_target() {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.stop_threads();
    }

    fn promote(&self) -> Promotion {
        // Promotion *is* the drain-and-seal protocol `finish` already runs:
        // ingestion ends at whatever prefix has arrived, in-flight applies
        // drain to it, the cut advances to the last boundary in the prefix,
        // and the threads stop. What promotion adds is the measurement (the
        // drain time is the failover cost the paper's thesis bounds by
        // replication lag) and the handover of the sealed store.
        let start = Instant::now();
        self.finish();
        Promotion {
            protocol: self.policy.name(),
            cut: self.policy.exposed_seq(),
            drain: start.elapsed(),
            store: Arc::clone(self.policy.store()),
        }
    }

    fn applied_seq(&self) -> SeqNo {
        self.policy.applied_seq()
    }

    fn exposed_seq(&self) -> SeqNo {
        self.policy.exposed_seq()
    }

    fn read_view(&self) -> Box<dyn ReadView> {
        self.policy.read_view()
    }

    fn lag(&self) -> Arc<LagTracker> {
        self.policy.lag()
    }

    fn metrics(&self) -> ReplicaMetrics {
        self.policy.metrics()
    }
}

impl<P: PipelinePolicy> Drop for PipelineRuntime<P> {
    fn drop(&mut self) {
        // Make sure background threads stop even if the caller forgot to
        // call finish(); without the full drain semantics, just signal
        // shutdown.
        self.ingest_tx.lock().take();
        self.stop_threads();
    }
}

/// Implements [`ClonedConcurrencyControl`] for a wrapper struct by
/// delegating every method to a [`PipelineRuntime`] field.
///
/// ```ignore
/// pub struct MyReplica { runtime: PipelineRuntime<MyPolicy> }
/// c5_core::delegate_replica_to_pipeline!(MyReplica, runtime);
/// ```
#[macro_export]
macro_rules! delegate_replica_to_pipeline {
    ($ty:ty, $field:ident) => {
        impl $crate::replica::ClonedConcurrencyControl for $ty {
            fn name(&self) -> &'static str {
                $crate::replica::ClonedConcurrencyControl::name(&self.$field)
            }
            fn apply_segment(&self, segment: ::c5_log::Segment) {
                self.$field.apply_segment(segment)
            }
            fn finish(&self) {
                self.$field.finish()
            }
            fn applied_seq(&self) -> ::c5_common::SeqNo {
                self.$field.applied_seq()
            }
            fn exposed_seq(&self) -> ::c5_common::SeqNo {
                self.$field.exposed_seq()
            }
            fn read_view(&self) -> ::std::boxed::Box<dyn $crate::replica::ReadView> {
                self.$field.read_view()
            }
            fn lag(&self) -> ::std::sync::Arc<$crate::lag::LagTracker> {
                self.$field.lag()
            }
            fn metrics(&self) -> $crate::replica::ReplicaMetrics {
                self.$field.metrics()
            }
            fn promote(&self) -> $crate::replica::Promotion {
                self.$field.promote()
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Boundary / lag bookkeeping shared by every policy.
// ---------------------------------------------------------------------------

/// Transaction-boundary ledger shared by every policy: the schedule stage
/// records each transaction's last-write position and primary commit time in
/// log order, and the expose stage drains every boundary the exposed cut has
/// covered into one replication-lag sample per transaction. Also remembers
/// the last position scheduled, which is the runtime's drain target.
#[derive(Debug, Default)]
pub struct BoundaryLedger {
    lag: Arc<LagTracker>,
    /// (last-write position, primary commit wall time) in log order.
    boundaries: Mutex<std::collections::VecDeque<(SeqNo, u64)>>,
    final_seq: AtomicU64,
}

impl BoundaryLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a ledger resuming at `cut`: the log is considered shipped
    /// through the cut (a checkpoint covers it), so the contiguity assert
    /// expects the first live segment to start at `cut + 1`. Transactions at
    /// or below the cut were exposed before the checkpoint and produce no
    /// new lag samples.
    pub fn starting_at(cut: SeqNo) -> Self {
        let ledger = Self::default();
        ledger.final_seq.store(cut.as_u64(), Ordering::Release);
        ledger
    }

    /// The lag tracker samples drain into.
    pub fn lag(&self) -> &Arc<LagTracker> {
        &self.lag
    }

    /// Records a segment's transaction boundaries (call from the schedule
    /// stage, in log order) and remembers the last position seen.
    ///
    /// # Panics
    /// Panics if the segment does not directly follow the last one noted.
    /// Every policy depends on log order — the per-row `prev_seq` stamps,
    /// the boundary queue, the dispatch order — and a reordered segment
    /// corrupts them silently (the symptom is a replica that wedges much
    /// later, with rows whose version chains skip writes). Failing loudly at
    /// the first misordered segment names the real culprit: the producer.
    pub fn note_segment(&self, segment: &Segment) {
        if let Some(first) = segment.first_seq() {
            let shipped = self.shipped_seq();
            assert_eq!(
                first.as_u64(),
                shipped.as_u64() + 1,
                "segments must arrive in log order: got a segment starting at \
                 {first} when the log was shipped through {shipped}"
            );
        }
        let mut boundaries = self.boundaries.lock();
        for record in &segment.records {
            if record.is_txn_last() {
                boundaries.push_back((record.seq, record.commit_wall_nanos));
            }
        }
        if let Some(last) = segment.last_seq() {
            self.final_seq.fetch_max(last.as_u64(), Ordering::Release);
        }
    }

    /// Records one lag sample for every transaction boundary now covered by
    /// the exposed cut. Safe to call concurrently (workers and the expose
    /// stage may both drive it).
    pub fn drain_exposed(&self, exposed: SeqNo) {
        let now = c5_log::now_nanos();
        let mut boundaries = self.boundaries.lock();
        while let Some(&(seq, committed_at)) = boundaries.front() {
            if seq <= exposed {
                boundaries.pop_front();
                self.lag.record(seq, committed_at, now);
            } else {
                break;
            }
        }
    }

    /// The last log position noted so far (the end of the log once ingestion
    /// is done).
    pub fn shipped_seq(&self) -> SeqNo {
        SeqNo(self.final_seq.load(Ordering::Acquire))
    }
}

// ---------------------------------------------------------------------------
// Per-row dependency wait lists.
// ---------------------------------------------------------------------------

/// Outcome of [`RowWaitList::install_blocking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingInstall {
    /// The write installed immediately (its predecessor was in place).
    Installed,
    /// The write installed after waiting for its per-row predecessor.
    InstalledAfterWait,
    /// Shutdown was signalled before the predecessor arrived.
    Aborted,
}

struct WaitShard {
    /// Parked writes keyed by the log position of the predecessor they wait
    /// for. A row's successor is unique, so each key holds at most one
    /// record.
    parked: Mutex<HashMap<u64, LogRecord>>,
    /// Notified whenever a position hashing to this shard is installed.
    installed: Condvar,
}

/// Event-driven per-row dependency wait lists — the runtime realization of
/// the explicit queue structure specified in [`crate::design_queues`].
///
/// The embedded `prev_seq` representation (Section 7.2) already tells every
/// write exactly which log position must be installed before it may execute.
/// Instead of busy-retrying a deferred write until that position appears,
/// the write *parks* here, keyed by its predecessor's position, and the
/// worker that installs the predecessor wakes it — installing it directly
/// and cascading down the row's chain. Because per-row successors are
/// unique, each installed position wakes at most one write, and a chain of
/// `k` conflicting writes costs exactly `k` installs plus `k` parks, however
/// many workers race on it.
///
/// `try_install` callbacks must be atomic check-and-installs (the store's
/// `install_if_prev`): they succeed exactly when the write's per-row
/// predecessor is the row's latest version.
pub struct RowWaitList {
    shards: Vec<WaitShard>,
}

impl std::fmt::Debug for RowWaitList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowWaitList")
            .field("shards", &self.shards.len())
            .field("parked", &self.parked())
            .finish()
    }
}

impl RowWaitList {
    /// Creates a wait list with `shards` independently locked shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "RowWaitList requires at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| WaitShard {
                    parked: Mutex::new(HashMap::new()),
                    installed: Condvar::new(),
                })
                .collect(),
        }
    }

    fn shard(&self, seq: SeqNo) -> &WaitShard {
        &self.shards[(seq.as_u64() as usize) % self.shards.len()]
    }

    /// Installs `record` — and, transitively, every parked write its
    /// installation unblocks — or parks it on its missing predecessor.
    /// Returns whether the record was parked (it will be installed later by
    /// the worker that installs its predecessor).
    ///
    /// `try_install` must be **non-blocking** (the faithful, timestamped
    /// cursor never gates installs): it runs under the predecessor's shard
    /// lock, which is what makes parking race-free against a concurrent
    /// install of the predecessor.
    pub fn install_or_park(
        &self,
        record: LogRecord,
        try_install: &impl Fn(&LogRecord) -> bool,
    ) -> bool {
        if try_install(&record) {
            self.drain_successors(record.seq, try_install);
            return false;
        }
        let shard = self.shard(record.prev_seq);
        let mut parked = shard.parked.lock();
        // Re-check under the shard lock: the predecessor may have been
        // installed between the failed attempt and the lock. Its installer
        // takes this same lock to look for us, so after this second failure
        // it is guaranteed to see the parked record.
        if try_install(&record) {
            drop(parked);
            self.drain_successors(record.seq, try_install);
            return false;
        }
        let seq = record.seq;
        let prior = parked.insert(record.prev_seq.as_u64(), record);
        // A hard assert, like drain_successors': silently dropping the
        // displaced record would stall the applied watermark forever — an
        // undebuggable hang instead of a panic naming the bad stamp.
        assert!(
            prior.is_none(),
            "a row's successor is unique, but {seq} collided with a parked write"
        );
        true
    }

    /// Installs `record`, blocking until its per-row predecessor is in place
    /// (C5's one-worker-per-transaction mode executes a transaction's writes
    /// in order on one worker, so it waits instead of handing the record
    /// off). Returns [`BlockingInstall::Aborted`] if `should_abort` fires
    /// first.
    ///
    /// Unlike [`install_or_park`](Self::install_or_park), the `try_install`
    /// callback here may itself block (the whole-database snapshot gate holds
    /// back writes past a cut in flight). The wait list therefore never holds
    /// a shard lock across an install attempt — a gate-blocked worker must
    /// not wedge the shard other workers need in order to finish the very
    /// prefix the gate is waiting on. The condvar timeout bounds the
    /// staleness of a wake-up that slips between an attempt and the wait.
    pub fn install_blocking(
        &self,
        record: &LogRecord,
        try_install: &impl Fn(&LogRecord) -> bool,
        should_abort: &impl Fn() -> bool,
    ) -> BlockingInstall {
        if try_install(record) {
            self.drain_successors(record.seq, try_install);
            return BlockingInstall::Installed;
        }
        let shard = self.shard(record.prev_seq);
        loop {
            if should_abort() {
                return BlockingInstall::Aborted;
            }
            {
                let mut parked = shard.parked.lock();
                shard
                    .installed
                    .wait_for(&mut parked, Duration::from_micros(200));
            }
            if try_install(record) {
                self.drain_successors(record.seq, try_install);
                return BlockingInstall::InstalledAfterWait;
            }
        }
    }

    /// After `installed` has been installed: wakes the write parked on it
    /// (if any), installs it, and repeats down the chain. Also notifies
    /// blocking waiters.
    fn drain_successors(&self, installed: SeqNo, try_install: &impl Fn(&LogRecord) -> bool) {
        let mut seq = installed;
        loop {
            let shard = self.shard(seq);
            let woken = shard.parked.lock().remove(&seq.as_u64());
            shard.installed.notify_all();
            let Some(record) = woken else { return };
            let ok = try_install(&record);
            assert!(
                ok,
                "woken write {} must install: its per-row predecessor {seq} was just installed",
                record.seq
            );
            seq = record.seq;
        }
    }

    /// Number of writes currently parked (diagnostic).
    pub fn parked(&self) -> usize {
        self.shards.iter().map(|s| s.parked.lock().len()).sum()
    }

    /// Wakes every blocking waiter (so shutdown polling runs immediately).
    pub fn wake_all(&self) {
        for shard in &self.shards {
            shard.installed.notify_all();
        }
    }
}

impl Default for RowWaitList {
    /// 64 shards: enough to keep workers on disjoint rows from contending.
    fn default() -> Self {
        Self::new(64)
    }
}

// ---------------------------------------------------------------------------
// Garbage-collection horizon.
// ---------------------------------------------------------------------------

/// Drives [`MvStore::gc`] from the expose stage: the horizon trails the
/// exposed cut by `trail` log positions, so recently created read views
/// (which pin the cut at creation time) keep seeing every version they can
/// name, while versions older than the trail are reclaimed.
///
/// Scans are rate-limited: the store is only walked once the horizon has
/// advanced by `max(1, trail / 4)` positions since the last collection.
#[derive(Debug)]
pub struct GcDriver {
    store: Arc<MvStore>,
    trail: u64,
    step: u64,
    last_horizon: AtomicU64,
    reclaimed: AtomicU64,
}

impl GcDriver {
    /// Creates a driver over `store` whose horizon trails the exposed cut by
    /// `trail` positions.
    pub fn new(store: Arc<MvStore>, trail: u64) -> Self {
        Self {
            store,
            trail,
            step: (trail / 4).max(1),
            last_horizon: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
        }
    }

    /// Advances the horizon towards `exposed - trail` and collects if it
    /// moved at least one step. Returns the number of versions reclaimed by
    /// this call. Intended to be called from a single thread (the expose
    /// stage).
    pub fn run(&self, exposed: SeqNo) -> u64 {
        let horizon = exposed.as_u64().saturating_sub(self.trail);
        let last = self.last_horizon.load(Ordering::Acquire);
        if horizon < last.saturating_add(self.step) {
            return 0;
        }
        self.last_horizon.store(horizon, Ordering::Release);
        let reclaimed = self.store.gc(Timestamp(horizon)) as u64;
        self.reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
        reclaimed
    }

    /// Total versions reclaimed so far.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
    }

    /// The current GC horizon (no version older than this is guaranteed to
    /// survive; reads at or after it are unaffected).
    pub fn horizon(&self) -> SeqNo {
        SeqNo(self.last_horizon.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, RowWrite, TxnId, Value, WriteKind};
    use parking_lot::Mutex as PlMutex;
    use std::collections::HashSet;

    fn record(seq: u64, prev: u64, key: u64) -> LogRecord {
        LogRecord {
            txn: TxnId(seq),
            seq: SeqNo(seq),
            commit_ts: Timestamp(seq),
            commit_wall_nanos: 0,
            prev_seq: SeqNo(prev),
            write: RowWrite::update(RowRef::new(0, key), Value::from_u64(seq)),
            idx_in_txn: 0,
            txn_len: 1,
        }
    }

    /// A model store: a write installs iff its predecessor is installed (or
    /// it has none).
    #[derive(Default)]
    struct ModelStore {
        installed: PlMutex<HashSet<u64>>,
        order: PlMutex<Vec<u64>>,
    }

    impl ModelStore {
        fn try_install(&self, r: &LogRecord) -> bool {
            let mut installed = self.installed.lock();
            if r.prev_seq != SeqNo::ZERO && !installed.contains(&r.prev_seq.as_u64()) {
                return false;
            }
            installed.insert(r.seq.as_u64());
            self.order.lock().push(r.seq.as_u64());
            true
        }
    }

    #[test]
    fn out_of_order_chain_parks_and_cascades() {
        let store = ModelStore::default();
        let waits = RowWaitList::new(4);
        let install = |r: &LogRecord| store.try_install(r);

        // Chain on one row: 1 → 2 → 3, delivered in reverse.
        assert!(waits.install_or_park(record(3, 2, 7), &install));
        assert!(waits.install_or_park(record(2, 1, 7), &install));
        assert_eq!(waits.parked(), 2);

        // Installing the head wakes the whole chain, in order.
        assert!(!waits.install_or_park(record(1, 0, 7), &install));
        assert_eq!(waits.parked(), 0);
        assert_eq!(*store.order.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn independent_rows_never_park() {
        let store = ModelStore::default();
        let waits = RowWaitList::new(4);
        let install = |r: &LogRecord| store.try_install(r);
        for seq in 1..=16 {
            assert!(!waits.install_or_park(record(seq, 0, seq), &install));
        }
        assert_eq!(waits.parked(), 0);
        assert_eq!(store.order.lock().len(), 16);
    }

    #[test]
    fn blocking_install_waits_for_the_predecessor() {
        let store = Arc::new(ModelStore::default());
        let waits = Arc::new(RowWaitList::new(4));

        let waiter = {
            let store = Arc::clone(&store);
            let waits = Arc::clone(&waits);
            std::thread::spawn(move || {
                waits.install_blocking(&record(2, 1, 7), &|r| store.try_install(r), &|| false)
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        assert!(!waiter.is_finished(), "the successor must wait");

        assert!(!waits.install_or_park(record(1, 0, 7), &|r| store.try_install(r)));
        assert_eq!(waiter.join().unwrap(), BlockingInstall::InstalledAfterWait);
        assert_eq!(*store.order.lock(), vec![1, 2]);
    }

    #[test]
    fn blocking_install_aborts_on_request() {
        let store = ModelStore::default();
        let waits = RowWaitList::new(4);
        let outcome = waits.install_blocking(
            &record(2, 1, 7),
            &|r| store.try_install(r),
            &|| true, // abort immediately
        );
        assert_eq!(outcome, BlockingInstall::Aborted);
        assert!(store.order.lock().is_empty());
    }

    #[test]
    fn concurrent_workers_drain_a_contended_chain() {
        // Writes 1..=200 all on one row, shuffled across 4 threads: the wait
        // list must produce exactly the in-order install sequence.
        let store = Arc::new(ModelStore::default());
        let waits = Arc::new(RowWaitList::default());
        let total = 200u64;
        let threads = 4;
        let mut handles = Vec::new();
        for t in 0..threads {
            let store = Arc::clone(&store);
            let waits = Arc::clone(&waits);
            handles.push(std::thread::spawn(move || {
                let mut seq = t + 1;
                while seq <= total {
                    waits.install_or_park(record(seq, seq - 1, 7), &|r| store.try_install(r));
                    seq += threads;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(waits.parked(), 0);
        let order = store.order.lock();
        assert_eq!(*order, (1..=total).collect::<Vec<_>>());
    }

    #[test]
    fn gc_driver_trails_the_exposed_cut() {
        let store = Arc::new(MvStore::default());
        let row = RowRef::new(0, 1);
        for ts in 1..=100u64 {
            store.install(
                row,
                Timestamp(ts),
                WriteKind::Update,
                Some(Value::from_u64(ts)),
            );
        }
        let gc = GcDriver::new(Arc::clone(&store), 10);
        // Horizon 90: everything older than the newest version <= 90 goes.
        let reclaimed = gc.run(SeqNo(100));
        assert!(reclaimed > 0);
        assert_eq!(gc.reclaimed(), reclaimed);
        assert_eq!(gc.horizon(), SeqNo(90));
        // Reads at or after the horizon still see the right values.
        assert_eq!(
            store.read_at(row, Timestamp(90)).unwrap().as_u64(),
            Some(90)
        );
        assert_eq!(
            store.read_at(row, Timestamp(100)).unwrap().as_u64(),
            Some(100)
        );
        // No advance, no rescan.
        assert_eq!(gc.run(SeqNo(100)), 0);
    }

    #[test]
    fn gc_driver_rate_limits_rescans() {
        let store = Arc::new(MvStore::default());
        let gc = GcDriver::new(store, 100);
        // step = 25: an advance of the horizon below that is skipped.
        assert_eq!(gc.run(SeqNo(110)), 0); // horizon 10 < 0 + 25
        assert_eq!(gc.horizon(), SeqNo::ZERO);
        gc.run(SeqNo(150)); // horizon 50 >= 25: collected (nothing to free)
        assert_eq!(gc.horizon(), SeqNo(50));
    }
}
