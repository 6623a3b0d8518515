//! The three workloads and the set-up they share.
//!
//! Every workload runs the same two measured phases on its own traffic:
//!
//! * **catch-up** — a log materialised in set-up by the MVTSO primary is
//!   replayed with `apply_segment` + `finish` into fresh replicas (faithful
//!   C5, one-worker-per-transaction C5, and the sharded replica): the
//!   backup's replay capacity on this traffic;
//! * **live** — an open-loop generator drives the 2PL primary, whose log
//!   streams through `StreamingLogger` and `LogShipper` into one faithful
//!   replica while read-only transactions are served beside it: commit
//!   latency, commit→exposed lag and read latency.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use c5_common::{OpCost, PrimaryConfig, RowRef, Timestamp, Value, WriteKind};
use c5_log::Segment;
use c5_primary::{MvtsoEngine, TxnFactory};
use c5_storage::MvStore;
use c5_workloads::synthetic::{
    adversarial_population, shard_span_population, AdversarialWorkload, ShardSpanWorkload,
};

/// Records per shipped or replayed segment.
pub const SEGMENT_RECORDS: usize = 256;
/// Keys each read-only transaction reads.
pub const READ_KEYS: usize = 8;
/// Staleness bound of the read-only transactions, in milliseconds.
pub const STALENESS_MS: u64 = 100;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The transactions a workload commits.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Two updates per transaction over a preloaded hot key set.
    HotKeys { keys: u64 },
    /// `inserts` unique inserts plus an update of one shared hot row.
    Adversarial { inserts: u64 },
}

impl Traffic {
    /// The rows both sides hold before the log starts.
    pub fn population(&self) -> Vec<(RowRef, Value)> {
        match *self {
            Traffic::HotKeys { keys } => shard_span_population(keys),
            Traffic::Adversarial { .. } => adversarial_population(),
        }
    }

    /// A fresh transaction generator.
    pub fn factory(&self) -> Arc<dyn TxnFactory> {
        match *self {
            Traffic::HotKeys { keys } => Arc::new(ShardSpanWorkload::new(keys)),
            Traffic::Adversarial { inserts } => Arc::new(AdversarialWorkload::new(inserts)),
        }
    }

    /// Log records one transaction writes.
    pub fn records_per_txn(&self) -> u64 {
        match *self {
            Traffic::HotKeys { .. } => 2,
            Traffic::Adversarial { inserts } => inserts + 1,
        }
    }
}

/// One workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub traffic: Traffic,
    /// Live write rate, transactions per second.
    pub write_rate: u64,
    /// Live read-only transaction rate, per second.
    pub read_rate: u64,
    /// Generator threads for the live phase (at most the core count).
    pub gen_threads: usize,
    /// Records in the catch-up log.
    pub catchup_records: u64,
    /// Timed replays of the catch-up log per replica kind, after one untimed
    /// warm-up replay each; the median is reported.
    pub catchup_reps: usize,
}

/// All workloads, by name.
pub fn spec(name: &str, nproc: usize) -> Option<Spec> {
    let spec = match name {
        "replay" => Spec {
            name: "replay",
            traffic: Traffic::HotKeys { keys: 4096 },
            write_rate: 2_000,
            read_rate: 500,
            gen_threads: 1,
            catchup_records: 1_000_000,
            catchup_reps: 4,
        },
        "trickle" => Spec {
            name: "trickle",
            traffic: Traffic::Adversarial { inserts: 4 },
            write_rate: 2_000,
            read_rate: 500,
            gen_threads: 1,
            catchup_records: 300_000,
            catchup_reps: 6,
        },
        "mixed" => Spec {
            name: "mixed",
            traffic: Traffic::Adversarial { inserts: 4 },
            write_rate: 5_000,
            read_rate: 5_000,
            gen_threads: 2.min(nproc),
            catchup_records: 300_000,
            catchup_reps: 6,
        },
        _ => return None,
    };
    Some(spec)
}

/// Names of every workload, in the order `--workload all` runs them.
pub const ALL: [&str; 3] = ["replay", "trickle", "mixed"];

/// Installs a population at the pre-log timestamp.
pub fn preload(store: &MvStore, population: &[(RowRef, Value)]) {
    for (row, value) in population {
        store.install(
            *row,
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(value.clone()),
        );
    }
}

/// A store holding `population`.
pub fn preloaded_store(population: &[(RowRef, Value)]) -> Arc<MvStore> {
    let store = Arc::new(MvStore::default());
    preload(&store, population);
    store
}

/// Materialises the catch-up log: the MVTSO primary (one executor, so the
/// log is a function of the seed) runs the workload's transactions over a
/// preloaded store until the log holds `records` records.
pub fn materialise_log(spec: &Spec, seed: u64) -> Vec<Segment> {
    let population = spec.traffic.population();
    let engine = MvtsoEngine::new(
        preloaded_store(&population),
        PrimaryConfig::default()
            .with_threads(1)
            .with_op_cost(OpCost::free()),
    );
    let factory = spec.traffic.factory();
    let mut rng = StdRng::seed_from_u64(seed);
    let txns = spec.catchup_records / spec.traffic.records_per_txn();
    for _ in 0..txns {
        let proc = factory.next_txn(0, &mut rng);
        engine
            .execute_on(0, proc.as_ref())
            .expect("a single MVTSO executor never conflicts");
    }
    engine.take_segments(SEGMENT_RECORDS)
}

/// The set-up of one run: the catch-up log, built [`SETUP_REPS`] times
/// (the last build is kept), and the median build time in seconds.
pub fn setup(spec: &Spec, seed: u64) -> (Vec<Segment>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut log = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut log));
        let t = Instant::now();
        log = materialise_log(spec, seed);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = crate::stats::median_f64(&times).expect("at least one set-up");
    (log, median)
}
