//! The catch-up phase: replay a materialised log into fresh replicas and
//! time `apply_segment` + `finish` from outside.

use std::sync::Arc;
use std::time::{Duration, Instant};

use c5_common::{OpCost, ReplicaConfig, RowRef, Value};
use c5_core::replica::{C5Mode, C5Replica, ClonedConcurrencyControl};
use c5_core::{MpcChecker, ShardedC5Replica};
use c5_log::Segment;

use crate::stats::median_f64;
use crate::sys;
use crate::workload::preloaded_store;

/// The replica kinds replayed, in report order.
pub const KINDS: [&str; 3] = ["c5", "c5-myrocks", "c5-sharded"];

/// Replica shape for the catch-up phase.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workers of the unsharded replicas (the core count).
    pub workers: usize,
    /// Shards of the sharded replica (the core count), one worker each.
    pub shards: usize,
    /// Key space the shard router partitions.
    pub shard_key_space: u64,
}

/// What one replay measured.
#[derive(Debug, Clone, Copy)]
struct Replay {
    wall: Duration,
    finish: Duration,
    cpu_ns: u64,
    applied_writes: u64,
    applied_txns: u64,
    deferred_writes: u64,
    cross_shard_txns: u64,
}

/// The catch-up phase's results.
#[derive(Debug, Clone, Default)]
pub struct CatchUp {
    /// Median replay throughput per kind, millions of records per second.
    pub mrec_s: [f64; 3],
    /// Records in the log.
    pub records: u64,
    /// Replays made.
    pub replays: u64,
    /// Faithful replica: median process CPU nanoseconds per record.
    pub cpu_ns_per_record: f64,
    /// Faithful replica: deferred writes ÷ applied writes.
    pub deferred_ratio: f64,
    /// Faithful replica: median `finish` time, milliseconds.
    pub finish_ms: f64,
    /// Sharded replica: cross-shard transactions ÷ applied transactions.
    pub cross_shard_share: f64,
    /// Correctness failures, if any.
    pub errors: Vec<String>,
}

fn build(
    kind: &str,
    population: &[(RowRef, Value)],
    shape: Shape,
) -> Arc<dyn ClonedConcurrencyControl> {
    let store = preloaded_store(population);
    let config = ReplicaConfig::default()
        .with_op_cost(OpCost::free())
        .with_workers(shape.workers);
    match kind {
        "c5" => C5Replica::new(C5Mode::Faithful, store, config),
        "c5-myrocks" => C5Replica::new(C5Mode::OneWorkerPerTxn, store, config),
        "c5-sharded" => ShardedC5Replica::new(
            store,
            config
                .with_workers(1)
                .with_shards(shape.shards)
                .with_shard_key_space(shape.shard_key_space),
        ),
        other => unreachable!("unknown replica kind {other}"),
    }
}

fn replay_once(
    kind: &str,
    population: &[(RowRef, Value)],
    log: &[Segment],
    shape: Shape,
    checker: &mut MpcChecker,
    records: u64,
) -> Result<Replay, String> {
    let replica = build(kind, population, shape);
    let segments = log.to_vec();
    let cpu0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    for segment in segments {
        replica.apply_segment(segment);
    }
    let f0 = Instant::now();
    replica.finish();
    let end = Instant::now();
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    let m = replica.metrics();
    if m.applied_writes != records {
        return Err(format!(
            "{kind}: applied {} writes of a {records}-record log",
            m.applied_writes
        ));
    }
    if replica.exposed_seq() != checker.final_seq() {
        return Err(format!(
            "{kind}: exposed {} after finish, log ends at {}",
            replica.exposed_seq(),
            checker.final_seq()
        ));
    }
    checker
        .verify_view(replica.read_view().as_ref())
        .map_err(|e| format!("{kind}: final view fails MPC: {e}"))?;
    Ok(Replay {
        wall: end - t0,
        finish: end - f0,
        cpu_ns,
        applied_writes: m.applied_writes,
        applied_txns: m.applied_txns,
        deferred_writes: m.deferred_writes,
        cross_shard_txns: m.cross_shard_txns,
    })
}

/// Replays `log` into each replica kind once untimed (the first replay of a
/// process runs on a cold heap and often reads well below the rest), then
/// `reps` timed times (kinds interleaved per repetition), and verifies every
/// final view against a serial replay.
pub fn run(population: &[(RowRef, Value)], log: &[Segment], shape: Shape, reps: usize) -> CatchUp {
    let records: u64 = log.iter().map(|s| s.len() as u64).sum();
    let mut checker = MpcChecker::new(population, log);
    let mut runs: [Vec<Replay>; 3] = Default::default();
    let mut out = CatchUp {
        records,
        ..CatchUp::default()
    };
    for rep in 0..=reps {
        for (k, kind) in KINDS.iter().enumerate() {
            out.replays += 1;
            match replay_once(kind, population, log, shape, &mut checker, records) {
                Ok(r) if rep > 0 => runs[k].push(r),
                Ok(_) => {}
                Err(e) => out.errors.push(e),
            }
        }
    }
    for (k, rs) in runs.iter().enumerate() {
        let rates: Vec<f64> = rs
            .iter()
            .map(|r| records as f64 / r.wall.as_secs_f64() / 1e6)
            .collect();
        out.mrec_s[k] = median_f64(&rates).unwrap_or(0.0);
    }
    let faithful = &runs[0];
    let cpu: Vec<f64> = faithful
        .iter()
        .map(|r| r.cpu_ns as f64 / records as f64)
        .collect();
    out.cpu_ns_per_record = median_f64(&cpu).unwrap_or(0.0);
    let finish: Vec<f64> = faithful
        .iter()
        .map(|r| r.finish.as_secs_f64() * 1e3)
        .collect();
    out.finish_ms = median_f64(&finish).unwrap_or(0.0);
    if let Some(r) = faithful.first() {
        out.deferred_ratio = r.deferred_writes as f64 / r.applied_writes.max(1) as f64;
    }
    if let Some(r) = runs[2].first() {
        out.cross_shard_share = r.cross_shard_txns as f64 / r.applied_txns.max(1) as f64;
    }
    out
}
