//! The live phase: an open-loop generator drives the 2PL primary; its log
//! streams through `StreamingLogger` and `LogShipper` into one faithful C5
//! replica, fed by an ingest thread that stamps each segment's receipt and
//! hand-off; read-only transactions run through the `ReadRouter` beside it.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use c5_common::{OpCost, PrimaryConfig, ReadConfig, ReplicaConfig, RowRef, SeqNo};
use c5_core::replica::{C5Mode, C5Replica, ClonedConcurrencyControl};
use c5_core::LagSample;
use c5_log::{now_nanos, LogShipper, StreamingLogger};
use c5_obs::{Obs, PipelineStage};
use c5_primary::{TplEngine, TxnFactory};
use c5_read::{ClassKind, ConsistencyClass, ReadRouter};
use c5_workloads::SYNTHETIC_TABLE;

use crate::pace::{self, Clock, PaceReport, Stream};
use crate::stats::Summary;
use crate::sys;
use crate::trace::{self, Hops, Span, READ_ID_BIT};
use crate::workload::{preloaded_store, Spec, Traffic, READ_KEYS, SEGMENT_RECORDS, STALENESS_MS};

/// Transactions committed closed-loop before the measured window, so the
/// replica has exposed something (bounded-staleness reads need a freshness
/// reference) and lazy set-up has run.
const WARMUP_TXNS: u64 = 512;
/// A generator whose median lateness exceeds this fell behind its schedule
/// (its backlog grew) rather than suffering transient stalls.
pub const MAX_LATE_P50_NS: u64 = 1_000_000;
/// A generator whose p99 lateness exceeds this stalled for a large share of
/// the window; its latencies would measure the stall, not the system.
pub const MAX_LATE_P99_NS: u64 = 50_000_000;
/// Requests whose spans are written to the trace file (per kind).
const TRACE_FILE_REQUESTS: usize = 20_000;

/// One write as the generator saw it (nanosecond wall-clock stamps).
#[derive(Debug, Clone, Copy, Default)]
struct WriteRec {
    /// The request's origin: its due time, or the generator's wake-up if
    /// that came later (see [`pace`]).
    due: u64,
    start: u64,
    end: u64,
    /// Boundary sequence number (the causal token); 0 if it failed.
    token: u64,
}

/// One read-only transaction as the generator saw it.
#[derive(Debug, Clone, Copy, Default)]
struct ReadRec {
    due: u64,
    start: u64,
    opened: u64,
    end: u64,
    hits: u32,
    ok: bool,
}

/// One segment as the ingest thread saw it.
#[derive(Debug, Clone, Copy)]
struct SegRec {
    /// Time the ingest thread waited in `recv` for it.
    idle: u64,
    recv: u64,
    ret: u64,
    records: u32,
}

/// Per-layer numbers of the traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub execute: Summary,
    pub aborts: u64,
    pub commit_to_recv: Summary,
    pub apply_segment: Summary,
    pub recv_to_expose: Summary,
    pub segment_records_mean: f64,
    pub recv_idle_ms: f64,
    /// Stage name → p50 dwell, nanoseconds (from the replica's registry).
    pub stage_dwell_p50: BTreeMap<&'static str, u64>,
    pub versions_per_row: f64,
    pub reclaimed_ratio: f64,
    pub bytes_per_record: f64,
    pub read_open: Summary,
    pub read_get_many: Summary,
    pub hit_ratio: f64,
    pub blocked: u64,
    pub timeouts: u64,
    /// Transactions whose hops were checked against their lag sample.
    pub hops_checked: u64,
    /// Of those, the ones whose hops did not sum to the lag.
    pub hop_mismatches: u64,
    /// Self time per span name, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Generator integrity.
#[derive(Debug, Clone, Default)]
pub struct GenReport {
    pub late: Summary,
    pub cpu_share: f64,
    pub pace: PaceReport,
    pub threads: usize,
}

/// The live phase's results.
#[derive(Debug, Clone, Default)]
pub struct Live {
    /// Nanoseconds from origin (due time, or the generator's wake-up if
    /// later) to commit return.
    pub commit: Summary,
    /// Nanoseconds from commit to exposure (the replica's `LagTracker`).
    pub lag: Summary,
    /// Nanoseconds from origin to the read-only transaction's last read.
    pub read: Summary,
    pub writes: u64,
    pub writes_failed: u64,
    pub reads: u64,
    pub reads_failed: u64,
    pub gen: GenReport,
    pub layers: Option<Layers>,
    pub errors: Vec<String>,
}

struct WallClock {
    t0: u64,
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        now_nanos().saturating_sub(self.t0)
    }
    fn sleep_until(&self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// Issues writes: one transaction per due request.
struct Writer<'a> {
    engine: &'a TplEngine,
    factory: &'a dyn TxnFactory,
    rng: StdRng,
    recs: Vec<WriteRec>,
    traffic: Traffic,
    created: u64,
    key_bound: &'a AtomicU64,
}

impl Writer<'_> {
    fn issue(&mut self, due: u64) {
        let proc = self.factory.next_txn(0, &mut self.rng);
        self.created += 1;
        let start = now_nanos();
        let result = self.engine.execute_with_token(proc.as_ref());
        let end = now_nanos();
        let token = match result {
            Ok((_, seq)) => {
                if let Traffic::Adversarial { inserts } = self.traffic {
                    self.key_bound
                        .store(self.created * inserts, Ordering::Release);
                }
                seq.as_u64()
            }
            Err(_) => 0,
        };
        self.recs.push(WriteRec {
            due,
            start,
            end,
            token,
        });
    }
}

/// Issues read-only transactions of [`READ_KEYS`] keys drawn from the rows
/// already committed.
struct Reader<'a> {
    router: &'a Arc<ReadRouter>,
    rng: StdRng,
    recs: Vec<ReadRec>,
    traffic: Traffic,
    key_bound: &'a AtomicU64,
    rows: Vec<RowRef>,
}

impl Reader<'_> {
    fn issue(&mut self, due: u64) {
        let (lo, hi) = match self.traffic {
            Traffic::HotKeys { keys } => (0, keys),
            // Adversarial inserts use keys 1..=bound (0 is the hot row).
            Traffic::Adversarial { .. } => (1, self.key_bound.load(Ordering::Acquire) + 1),
        };
        self.rows.clear();
        for _ in 0..READ_KEYS {
            self.rows
                .push(RowRef::new(SYNTHETIC_TABLE, self.rng.gen_range(lo..hi)));
        }
        let class = ConsistencyClass::BoundedStaleness(Duration::from_millis(STALENESS_MS));
        let start = now_nanos();
        let mut rec = ReadRec {
            due,
            start,
            ..ReadRec::default()
        };
        match self.router.read_only_txn(&class) {
            Ok(txn) => {
                rec.opened = now_nanos();
                let values = txn.get_many(&self.rows);
                rec.end = now_nanos();
                rec.hits = values.iter().filter(|v| v.is_some()).count() as u32;
                rec.ok = true;
            }
            Err(_) => {
                rec.opened = now_nanos();
                rec.end = rec.opened;
            }
        }
        self.recs.push(rec);
    }
}

/// What the generator threads hand back.
struct GenOut {
    writes: Vec<WriteRec>,
    reads: Vec<ReadRec>,
    late: Vec<u64>,
    cpu_ns: u64,
    pace: PaceReport,
}

/// Runs the live phase for `seconds` seconds.
///
/// With `spans` set (the traced run), every request's spans are built, the
/// hop-sum identity is checked, per-layer numbers are collected, and the
/// first requests' spans are written to `spans`.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    workers: usize,
    spans: Option<&mut dyn Write>,
) -> Live {
    let traced = spans.is_some();
    let population = spec.traffic.population();
    let obs = Obs::new();

    // Primary → logger → shipper.
    let (shipper, receiver) = LogShipper::unbounded();
    let logger = StreamingLogger::new(SEGMENT_RECORDS, shipper.with_obs(Arc::clone(&obs)));
    let engine = TplEngine::new(
        preloaded_store(&population),
        PrimaryConfig::default()
            .with_threads(spec.gen_threads)
            .with_op_cost(OpCost::free()),
        logger,
    );

    // One faithful replica, and the read router over it.
    let replica = C5Replica::new(
        C5Mode::Faithful,
        preloaded_store(&population),
        ReplicaConfig::default()
            .with_workers(workers)
            .with_op_cost(OpCost::free())
            .with_obs(Arc::clone(&obs)),
    );
    let fleet: Vec<Arc<dyn ClonedConcurrencyControl>> =
        vec![Arc::clone(&replica) as Arc<dyn ClonedConcurrencyControl>];
    let router = Arc::new(ReadRouter::new(
        fleet,
        ReadConfig::default().with_obs(Arc::clone(&obs)),
    ));

    let factory = spec.traffic.factory();
    let key_bound = AtomicU64::new(0);
    let mut out = Live::default();
    let window_ns = seconds * 1_000_000_000;
    let write_stream = Stream::new(spec.write_rate, window_ns);
    let read_stream = Stream::new(spec.read_rate, window_ns);

    let (segs, txn_marks, gen_outs, aborts_before, rss_before) = std::thread::scope(|scope| {
        // Ingest: receive each segment, hand it to the replica, stamp both.
        let replica_ref: &C5Replica = &replica;
        let ingest = scope.spawn(move || {
            let mut segs: Vec<SegRec> = Vec::with_capacity(1 << 16);
            // (boundary seq, commit wall nanos, segment index), traced only.
            let mut marks: Vec<(u64, u64, u32)> = Vec::new();
            loop {
                let idle_from = now_nanos();
                let Some(segment) = receiver.recv() else {
                    break;
                };
                let recv = now_nanos();
                if traced {
                    let idx = segs.len() as u32;
                    marks.extend(
                        segment
                            .records
                            .iter()
                            .filter(|r| r.is_txn_last())
                            .map(|r| (r.seq.as_u64(), r.commit_wall_nanos, idx)),
                    );
                }
                let records = segment.len() as u32;
                replica_ref.apply_segment(segment);
                let ret = now_nanos();
                segs.push(SegRec {
                    idle: recv - idle_from,
                    recv,
                    ret,
                    records,
                });
            }
            replica_ref.finish();
            (segs, marks)
        });

        // Warm-up, closed loop, then wait for it to be exposed.
        let mut warm = Writer {
            engine: &engine,
            factory: factory.as_ref(),
            rng: StdRng::seed_from_u64(seed ^ 0x5741_524d),
            recs: Vec::new(),
            traffic: spec.traffic,
            created: 0,
            key_bound: &key_bound,
        };
        for _ in 0..WARMUP_TXNS {
            warm.issue(now_nanos());
        }
        engine.flush_log();
        let warm_token = SeqNo(warm.recs.iter().map(|r| r.token).max().unwrap_or(0));
        if !replica.wait_until_exposed(warm_token, Duration::from_secs(10)) {
            out.errors
                .push("warm-up was not exposed within 10 s".into());
        }
        let created = warm.created;
        let aborts_before = engine.aborted();
        let rss_before = sys::rss_bytes();

        // The measured window: generator threads share one start time.
        let t0 = now_nanos() + 2_000_000;
        let mut writer = Some(Writer {
            rng: StdRng::seed_from_u64(seed),
            recs: Vec::with_capacity(write_stream.count() as usize),
            created,
            ..warm
        });
        let mut reader = Some(Reader {
            router: &router,
            rng: StdRng::seed_from_u64(seed.wrapping_add(1)),
            recs: Vec::with_capacity(read_stream.count() as usize),
            traffic: spec.traffic,
            key_bound: &key_bound,
            rows: Vec::with_capacity(READ_KEYS),
        });
        let split = spec.gen_threads >= 2;
        let mut groups: Vec<(Option<Writer<'_>>, Option<Reader<'_>>, Vec<Stream>)> = if split {
            vec![
                (writer.take(), None, vec![write_stream.clone()]),
                (None, reader.take(), vec![read_stream.clone()]),
            ]
        } else {
            vec![(
                writer.take(),
                reader.take(),
                vec![write_stream.clone(), read_stream.clone()],
            )]
        };
        let handles: Vec<_> = groups
            .drain(..)
            .map(|(mut w, mut r, mut streams)| {
                scope.spawn(move || {
                    sys::lower_timer_slack();
                    let clock = WallClock { t0 };
                    let wait = t0.saturating_sub(now_nanos());
                    std::thread::sleep(Duration::from_nanos(wait));
                    let cpu0 = sys::thread_cpu_ns();
                    let mut late = Vec::new();
                    let has_writer = w.is_some();
                    let pace = pace::run(&clock, &mut streams, |s, _, due, origin| {
                        late.push(now_nanos().saturating_sub(t0 + due));
                        if s == 0 && has_writer {
                            w.as_mut().expect("writer stream").issue(t0 + origin);
                        } else {
                            r.as_mut().expect("reader stream").issue(t0 + origin);
                        }
                    });
                    GenOut {
                        writes: w.map(|w| w.recs).unwrap_or_default(),
                        reads: r.map(|r| r.recs).unwrap_or_default(),
                        late,
                        cpu_ns: sys::thread_cpu_ns() - cpu0,
                        pace,
                    }
                })
            })
            .collect();
        let cpu0 = sys::process_cpu_ns();
        let gen_outs: Vec<GenOut> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect();
        let process_cpu = sys::process_cpu_ns() - cpu0;
        let gen_cpu: u64 = gen_outs.iter().map(|g| g.cpu_ns).sum();
        out.gen.cpu_share = gen_cpu as f64 / process_cpu.max(1) as f64;
        out.gen.threads = gen_outs.len();
        engine.close_log();
        let (segs, marks) = ingest.join().expect("ingest thread");
        (segs, marks, gen_outs, aborts_before, rss_before)
    });

    let mut writes: Vec<WriteRec> = Vec::new();
    let mut reads: Vec<ReadRec> = Vec::new();
    let mut late: Vec<u64> = Vec::new();
    for g in gen_outs {
        writes.extend(g.writes);
        reads.extend(g.reads);
        late.extend(g.late);
        out.gen.pace.dispatched += g.pace.dispatched;
        out.gen.pace.sleeps += g.pace.sleeps;
        out.gen.pace.idle_wakeups += g.pace.idle_wakeups;
    }
    out.gen.late = Summary::of(&mut late);
    if out.gen.late.p50 > MAX_LATE_P50_NS || out.gen.late.p99 > MAX_LATE_P99_NS {
        out.errors.push(format!(
            "generator fell behind its schedule: lateness p50 {} µs, p99 {} µs",
            out.gen.late.p50 / 1000,
            out.gen.late.p99 / 1000
        ));
    }

    // Outcomes.
    out.writes = writes.len() as u64;
    out.writes_failed = writes.iter().filter(|w| w.token == 0).count() as u64;
    out.reads = reads.len() as u64;
    out.reads_failed = reads.iter().filter(|r| !r.ok).count() as u64;
    out.commit = Summary::of(
        &mut writes
            .iter()
            .filter(|w| w.token != 0)
            .map(|w| w.end - w.due)
            .collect::<Vec<_>>(),
    );
    out.read = Summary::of(
        &mut reads
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.end - r.due)
            .collect::<Vec<_>>(),
    );

    // Correctness: the exposed state equals the primary's row for row, and
    // every committed transaction yields exactly one lag sample.
    let view = replica.read_view();
    let primary_store = engine.store();
    if view.as_of() != engine.log_last_seq() {
        out.errors.push(format!(
            "replica exposed {} but the log ends at {}",
            view.as_of(),
            engine.log_last_seq()
        ));
    }
    let primary_rows = primary_store.scan_all_at(primary_store.max_installed_ts());
    let replica_rows = view.scan_all();
    if primary_rows != replica_rows {
        out.errors.push(format!(
            "final exposed state differs from the primary's ({} vs {} rows)",
            replica_rows.len(),
            primary_rows.len()
        ));
    }
    drop((primary_rows, replica_rows, view));
    let mut samples: Vec<LagSample> = replica.lag().samples();
    samples.sort_unstable_by_key(|s| s.boundary_seq);
    let committed = engine.committed();
    if samples.len() as u64 != committed
        || samples
            .windows(2)
            .any(|w| w[0].boundary_seq == w[1].boundary_seq)
    {
        out.errors.push(format!(
            "{} lag samples for {committed} committed transactions",
            samples.len()
        ));
    }
    let sample_of = |token: u64| {
        samples
            .binary_search_by_key(&SeqNo(token), |s| s.boundary_seq)
            .ok()
            .map(|i| samples[i])
    };
    let mut lag = Vec::with_capacity(writes.len());
    for w in writes.iter().filter(|w| w.token != 0) {
        match sample_of(w.token) {
            Some(s) => lag.push(s.lag_nanos()),
            None => {
                out.errors.push(format!(
                    "committed transaction {} has no lag sample",
                    w.token
                ));
                break;
            }
        }
    }
    out.lag = Summary::of(&mut lag);

    if traced {
        let mut layers = Layers {
            aborts: engine.aborted() - aborts_before,
            ..Layers::default()
        };
        let m = replica.metrics();
        layers.bytes_per_record =
            sys::rss_bytes().saturating_sub(rss_before) as f64 / m.applied_writes.max(1) as f64;
        let stats = replica.store().stats();
        layers.versions_per_row = stats.versions as f64 / stats.rows.max(1) as f64;
        layers.reclaimed_ratio = m.reclaimed_versions as f64 / m.applied_writes.max(1) as f64;
        let snapshot = obs.metrics.snapshot();
        for stage in PipelineStage::all() {
            let name = format!("stage_dwell_ns{{stage=\"{}\"}}", stage.name());
            let p50 = snapshot
                .histogram(&name)
                .map(|h| h.percentile(0.5))
                .unwrap_or(0);
            layers.stage_dwell_p50.insert(stage.name(), p50);
        }
        let class = router.class_stats(ClassKind::BoundedStaleness);
        layers.blocked = class.blocked;
        layers.timeouts = class.timeouts;
        let keys_read: u64 = reads.iter().filter(|r| r.ok).count() as u64 * READ_KEYS as u64;
        layers.hit_ratio =
            reads.iter().map(|r| r.hits as u64).sum::<u64>() as f64 / keys_read.max(1) as f64;
        layers.segment_records_mean =
            segs.iter().map(|s| s.records as f64).sum::<f64>() / segs.len().max(1) as f64;
        layers.recv_idle_ms =
            segs.iter().map(|s| s.idle as f64).sum::<f64>() / segs.len().max(1) as f64 / 1e6;
        trace_requests(
            &mut layers,
            &writes,
            &reads,
            &segs,
            &txn_marks,
            &sample_of,
            spans.expect("traced run has a span sink"),
        );
        if layers.hop_mismatches > 0 {
            out.errors.push(format!(
                "{} of {} transactions' hops do not sum to their LagTracker lag",
                layers.hop_mismatches, layers.hops_checked
            ));
        }
        out.layers = Some(layers);
    }
    out
}

/// Builds each request's spans, checks the hop-sum identity, accumulates
/// self times and per-layer summaries, and writes the first requests'
/// spans to the trace file.
fn trace_requests(
    layers: &mut Layers,
    writes: &[WriteRec],
    reads: &[ReadRec],
    segs: &[SegRec],
    marks: &[(u64, u64, u32)],
    sample_of: &dyn Fn(u64) -> Option<LagSample>,
    file: &mut dyn Write,
) {
    let mut execute = Vec::with_capacity(writes.len());
    let mut commit_to_recv = Vec::with_capacity(writes.len());
    let mut apply = Vec::with_capacity(segs.len());
    let mut recv_to_expose = Vec::with_capacity(writes.len());
    let mut written = 0usize;
    let mut spans: Vec<Span> = Vec::with_capacity(8);
    let mut emit = |spans: &[Span], layers: &mut Layers, written: &mut usize| {
        for (sp, t) in spans.iter().zip(trace::self_times(spans)) {
            *layers.self_ns.entry(sp.name).or_insert(0) += t;
        }
        if *written < TRACE_FILE_REQUESTS {
            for sp in spans {
                let _ = writeln!(
                    file,
                    "{{\"name\":\"{}\",\"id\":{},\"start\":{},\"end\":{},\"parent\":{}}}",
                    sp.name,
                    sp.id,
                    sp.start,
                    sp.end,
                    sp.parent.map_or("null".to_string(), |p| p.to_string())
                );
            }
            *written += 1;
        }
    };
    for s in segs {
        apply.push(s.ret - s.recv);
    }
    for w in writes.iter().filter(|w| w.token != 0) {
        execute.push(w.end - w.start);
        let Some(sample) = sample_of(w.token) else {
            continue;
        };
        let Ok(i) = marks.binary_search_by_key(&w.token, |m| m.0) else {
            layers.hop_mismatches += 1;
            continue;
        };
        let (_, commit, seg) = marks[i];
        let seg = segs[seg as usize];
        let exposed = sample.exposed_at_nanos;
        let hops = Hops::new(commit, seg.recv, seg.ret, exposed);
        layers.hops_checked += 1;
        if commit != sample.committed_at_nanos || !trace::hops_match_lag(&hops, sample.lag_nanos())
        {
            layers.hop_mismatches += 1;
        }
        commit_to_recv.push(hops.commit_to_recv.max(0) as u64);
        recv_to_expose.push(hops.recv_to_expose().max(0) as u64);
        spans.clear();
        let id = w.token;
        let root_end = exposed.max(w.end);
        spans.push(Span {
            name: "txn",
            id,
            start: w.due,
            end: root_end,
            parent: None,
        });
        spans.push(Span {
            name: "gen.wait",
            id,
            start: w.due,
            end: w.start,
            parent: Some(0),
        });
        spans.push(Span {
            name: "primary.execute",
            id,
            start: w.start,
            end: w.end,
            parent: Some(0),
        });
        spans.push(Span {
            name: "log.commit_to_recv",
            id,
            start: commit,
            end: seg.recv,
            parent: Some(0),
        });
        spans.push(Span {
            name: "core.apply_segment",
            id,
            start: seg.recv,
            end: seg.ret,
            parent: Some(0),
        });
        spans.push(Span {
            name: "core.return_to_expose",
            id,
            start: seg.ret.min(exposed),
            end: exposed,
            parent: Some(0),
        });
        emit(&spans, layers, &mut written);
    }
    let mut open = Vec::with_capacity(reads.len());
    let mut get_many = Vec::with_capacity(reads.len());
    let mut written_reads = 0usize;
    for (i, r) in reads.iter().enumerate().filter(|(_, r)| r.ok) {
        open.push(r.opened - r.start);
        get_many.push(r.end - r.opened);
        spans.clear();
        let id = READ_ID_BIT | i as u64;
        spans.push(Span {
            name: "read",
            id,
            start: r.due,
            end: r.end,
            parent: None,
        });
        spans.push(Span {
            name: "gen.wait",
            id,
            start: r.due,
            end: r.start,
            parent: Some(0),
        });
        spans.push(Span {
            name: "read.open",
            id,
            start: r.start,
            end: r.opened,
            parent: Some(0),
        });
        spans.push(Span {
            name: "read.get_many",
            id,
            start: r.opened,
            end: r.end,
            parent: Some(0),
        });
        emit(&spans, layers, &mut written_reads);
    }
    layers.execute = Summary::of(&mut execute);
    layers.commit_to_recv = Summary::of(&mut commit_to_recv);
    layers.apply_segment = Summary::of(&mut apply);
    layers.recv_to_expose = Summary::of(&mut recv_to_expose);
    layers.read_open = Summary::of(&mut open);
    layers.read_get_many = Summary::of(&mut get_many);
}
