//! The benchmark of record for the C5 serving path.
//!
//! ```text
//! perfbench --workload <replay|trickle|mixed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets up (materialises the workload's catch-up log), replays that
//! log into fresh replicas, then runs the workload's traffic open loop
//! through primary → log → replica → reads for `--seconds`. It checks every
//! output (MPC on each replayed replica, primary/replica row equality and
//! one lag sample per committed transaction on the live path, generator
//! schedule integrity) and prints, as its last line, one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the traced
//! run with `--trace 1`. A failed check prints `"correct": false` with no
//! metrics and exits non-zero.
//!
//! The benchmark only calls the public functions of the layer crates and
//! times each layer from outside, around the calls into it.

mod catchup;
mod live;
mod out;
mod pace;
mod stats;
mod sys;
mod trace;
mod workload;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use out::Metric;
use stats::Summary;
use workload::Spec;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Human-readable line for one timing: median, p99, highest supported
/// percentile, max and sample count.
fn timing_line(label: &str, s: &Summary, scale: fn(u64) -> f64, unit: &str) {
    let top = s
        .top
        .map(|(p, v)| format!("p{p}={:.3}", scale(v)))
        .unwrap_or_else(|| "no percentile has 10 samples beyond it".into());
    println!(
        "  {label:<26} p50={:.3} p90={:.3} p99={:.3}{} chunked-p99={:.3} {top} max={:.3} {unit}  (n={})",
        scale(s.p50),
        scale(s.p90),
        scale(s.p99),
        if s.p99_supported() { "" } else { " (unsupported)" },
        scale(s.p99_chunked),
        scale(s.max),
        s.count
    );
}

fn provenance(spec: &Spec, seed: u64, seconds: u64, nproc: usize, log_records: u64) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let num = |v: u64| v.to_string();
    let (traffic, keys) = match spec.traffic {
        workload::Traffic::HotKeys { keys } => ("hot-keys: 2 updates per txn".to_string(), keys),
        workload::Traffic::Adversarial { inserts } => (
            format!("adversarial: {inserts} unique inserts + 1 hot-row update per txn"),
            0,
        ),
    };
    out::object(&[
        ("workload", out::quote(spec.name)),
        ("seed", num(seed)),
        ("seconds", num(seconds)),
        ("available_parallelism", num(nproc as u64)),
        ("git_revision", out::quote(&env("PERFBENCH_GIT_REV"))),
        ("git_dirty", out::quote(&env("PERFBENCH_GIT_DIRTY"))),
        ("rustc", out::quote(&env("PERFBENCH_RUSTC"))),
        (
            "build_profile",
            out::quote(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("traffic", out::quote(&traffic)),
        ("hot_key_space", num(keys)),
        ("write_rate_txn_s", num(spec.write_rate)),
        ("read_rate_txn_s", num(spec.read_rate)),
        ("read_keys", num(workload::READ_KEYS as u64)),
        ("read_staleness_ms", num(workload::STALENESS_MS)),
        ("generator_threads", num(spec.gen_threads as u64)),
        ("segment_records", num(workload::SEGMENT_RECORDS as u64)),
        ("catchup_log_records", num(log_records)),
        ("catchup_reps", num(spec.catchup_reps as u64)),
        ("replica_workers", num(nproc as u64)),
        ("sharded_shards", num(nproc as u64)),
        ("sharded_workers_per_shard", num(1)),
        ("snapshot_interval_ms", num(10)),
        ("setup_reps", num(workload::SETUP_REPS as u64)),
        ("op_cost", out::quote("free")),
    ])
}

/// Runs one workload and prints its result. Returns whether every check
/// passed.
fn run_one(spec: &Spec, args: &Args, nproc: usize) -> bool {
    eprintln!("[perfbench] {}: set-up", spec.name);
    let (log, setup_s) = workload::setup(spec, args.seed);
    let population = spec.traffic.population();
    let log_records: u64 = log.iter().map(|s| s.len() as u64).sum();
    let max_key = log
        .iter()
        .flat_map(|s| s.records.iter().map(|r| r.write.row.key.as_u64()))
        .max()
        .unwrap_or(0);
    println!(
        "provenance {}",
        provenance(spec, args.seed, args.seconds, nproc, log_records)
    );
    let peak_reset = sys::reset_peak_rss();

    eprintln!("[perfbench] {}: catch-up replay", spec.name);
    let shape = catchup::Shape {
        workers: nproc,
        shards: nproc,
        shard_key_space: max_key + 1,
    };
    let cu = catchup::run(&population, &log, shape, spec.catchup_reps);
    drop(log);

    eprintln!("[perfbench] {}: live ({} s)", spec.name, args.seconds);
    let mut spans_out: Option<Box<dyn Write>> = args.trace.then(|| {
        match out::dir()
            .and_then(|d| File::create(d.join(format!("{}.spans.jsonl", spec.name))).ok())
        {
            Some(f) => Box::new(BufWriter::new(f)) as Box<dyn Write>,
            None => Box::new(std::io::sink()),
        }
    });
    let lv = live::run(
        spec,
        args.seed,
        args.seconds,
        nproc,
        spans_out.as_mut().map(|w| w.as_mut() as &mut dyn Write),
    );
    if let Some(f) = spans_out.as_mut() {
        let _ = f.flush();
    }
    let peak_rss_mb = sys::peak_rss_bytes() as f64 / (1u64 << 20) as f64;

    let errors: Vec<&String> = cu.errors.iter().chain(lv.errors.iter()).collect();
    let attempted = lv.writes + lv.reads + cu.replays;
    let failed = lv.writes_failed + lv.reads_failed + cu.errors.len() as u64;

    let e2e = vec![
        Metric::new("replay_mrec_s", cu.mrec_s[0], "Mrec/s"),
        Metric::new("replay_sharded_mrec_s", cu.mrec_s[2], "Mrec/s"),
        Metric::new("lag_p50_ms", ms(lv.lag.p50), "ms"),
        Metric::new("lag_p99_ms", ms(lv.lag.p99_chunked), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ];

    println!("{} (trace {}):", spec.name, args.trace as u8);
    for (i, kind) in catchup::KINDS.iter().enumerate() {
        println!(
            "  replay {kind:<19} {:.4} Mrec/s  ({} records, median of {} after 1 warm-up)",
            cu.mrec_s[i], cu.records, spec.catchup_reps
        );
    }
    timing_line("lag (commit->exposed)", &lv.lag, ms, "ms");
    timing_line("commit (from origin)", &lv.commit, us, "us");
    timing_line("read-only txn (origin)", &lv.read, us, "us");
    println!(
        "  peak_rss_mb={peak_rss_mb:.1}{}  setup_s={setup_s:.4} (median of {})",
        if peak_reset {
            ""
        } else {
            " (since process start)"
        },
        workload::SETUP_REPS
    );
    println!(
        "  fail_ratio={} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    let late = &lv.gen.late;
    println!(
        "  generator: {} thread(s), lateness p50={:.1} p99={:.1} max={:.1} us, cpu_share={:.4}, \
         {} dispatched, {} sleeps, {} idle wake-ups",
        lv.gen.threads,
        us(late.p50),
        us(late.p99),
        us(late.max),
        lv.gen.cpu_share,
        lv.gen.pace.dispatched,
        lv.gen.pace.sleeps,
        lv.gen.pace.idle_wakeups
    );

    let metrics = if args.trace {
        let layers = lv.layers.clone().unwrap_or_default();
        report_trace(spec, &layers, &e2e);
        per_layer(&lv, &cu, &layers)
    } else {
        out::save_untraced(spec.name, &e2e);
        e2e
    };

    if !errors.is_empty() {
        for e in &errors {
            println!("  CHECK FAILED: {e}");
        }
        println!("{}", out::result_line(false, attempted, failed.max(1), &[]));
        return false;
    }
    println!("{}", out::result_line(true, attempted, failed, &metrics));
    true
}

/// Prints the traced run's self times, the hop-sum check, and the tracing
/// overhead against the last untraced run of this workload.
fn report_trace(spec: &Spec, layers: &live::Layers, traced_e2e: &[Metric]) {
    println!(
        "  hop-sum identity: {} of {} transactions' hops sum to their LagTracker lag",
        layers.hops_checked - layers.hop_mismatches,
        layers.hops_checked
    );
    let total: u64 = layers.self_ns.values().sum();
    println!("  self time by span (ms, share):");
    for (name, ns) in &layers.self_ns {
        println!(
            "    {name:<24} {:>12.3} {:>7.2}%",
            ms(*ns),
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    let untraced = out::load_untraced(spec.name);
    if untraced.is_empty() {
        println!(
            "  tracing overhead: no untraced run of {} to compare with",
            spec.name
        );
        return;
    }
    println!("  tracing overhead (traced / last untraced - 1):");
    for m in traced_e2e {
        if let Some((_, base)) = untraced.iter().find(|(n, _)| *n == m.name) {
            println!(
                "    {:<24} {:+.2}%  ({} vs {})",
                m.name,
                100.0 * (m.value / base - 1.0),
                m.value,
                base
            );
        }
    }
}

fn per_layer(lv: &live::Live, cu: &catchup::CatchUp, l: &live::Layers) -> Vec<Metric> {
    let mut m = vec![
        Metric::new("gen.late_us.p99", us(lv.gen.late.p99_chunked), "us"),
        Metric::new("gen.cpu_share", lv.gen.cpu_share, "ratio"),
        Metric::new("primary.execute_us.p50", us(l.execute.p50), "us"),
        Metric::new("primary.execute_us.p99", us(l.execute.p99_chunked), "us"),
        Metric::new("primary.aborts", l.aborts as f64, "count"),
        Metric::new("log.commit_to_recv_ms.p50", ms(l.commit_to_recv.p50), "ms"),
        Metric::new(
            "log.commit_to_recv_ms.p99",
            ms(l.commit_to_recv.p99_chunked),
            "ms",
        ),
        Metric::new(
            "log.segment_records.mean",
            l.segment_records_mean,
            "records",
        ),
        Metric::new("log.recv_idle_ms", l.recv_idle_ms, "ms"),
        Metric::new("core.apply_segment_us.p50", us(l.apply_segment.p50), "us"),
        Metric::new(
            "core.apply_segment_us.p99",
            us(l.apply_segment.p99_chunked),
            "us",
        ),
        Metric::new("core.recv_to_expose_ms.p50", ms(l.recv_to_expose.p50), "ms"),
        Metric::new(
            "core.recv_to_expose_ms.p99",
            ms(l.recv_to_expose.p99_chunked),
            "ms",
        ),
    ];
    for stage in ["ingest", "schedule", "apply", "expose"] {
        let p50 = l.stage_dwell_p50.get(stage).copied().unwrap_or(0);
        m.push(Metric::new(
            format!("core.stage_dwell_us.{stage}.p50"),
            us(p50),
            "us",
        ));
    }
    m.extend([
        Metric::new("core.cpu_ns_per_record", cu.cpu_ns_per_record, "ns/record"),
        Metric::new("core.myrocks_replay_mrec_s", cu.mrec_s[1], "Mrec/s"),
        Metric::new("core.deferred_ratio", cu.deferred_ratio, "ratio"),
        Metric::new("core.finish_ms", cu.finish_ms, "ms"),
        Metric::new("core.cross_shard_share", cu.cross_shard_share, "ratio"),
        Metric::new("storage.bytes_per_record", l.bytes_per_record, "B/record"),
        Metric::new(
            "storage.versions_per_row",
            l.versions_per_row,
            "versions/row",
        ),
        Metric::new("storage.reclaimed_ratio", l.reclaimed_ratio, "ratio"),
        Metric::new("read.open_us.p50", us(l.read_open.p50), "us"),
        Metric::new("read.open_us.p99", us(l.read_open.p99_chunked), "us"),
        Metric::new("read.get_many_us.p50", us(l.read_get_many.p50), "us"),
        Metric::new(
            "read.get_many_us.p99",
            us(l.read_get_many.p99_chunked),
            "us",
        ),
        Metric::new("read.hit_ratio", l.hit_ratio, "ratio"),
        Metric::new("read.blocked", l.blocked as f64, "count"),
        Metric::new("read.timeouts", l.timeouts as f64, "count"),
    ]);
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let names: Vec<&str> = if args.workload == "all" {
        workload::ALL.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        let Some(spec) = workload::spec(name, nproc) else {
            eprintln!(
                "perfbench: unknown workload {name} (expected one of {:?} or all)",
                workload::ALL
            );
            return ExitCode::from(2);
        };
        ok &= run_one(&spec, &args, nproc);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
