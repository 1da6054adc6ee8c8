//! Bench regression guard for CI.
//!
//! Re-measures the batched columnar detection hot path on the standard
//! bench fixture and compares it against the committed baseline in
//! `BENCH_detection.json`. Exits non-zero when:
//!
//! - sequential (batched) throughput regressed more than the tolerance
//!   (default 10%, override with `BENCH_GUARD_TOLERANCE=0.25`),
//! - the session-layer ingest (the `Detect`-trait staged-batch drive
//!   `lumen6 detect` uses) costs more than the allowed overhead over raw
//!   sequential detection (default 5%, override with
//!   `BENCH_GUARD_SESSION_OVERHEAD`), or
//! - streaming chunked decode is slower than materialize-then-detect by
//!   more than the parity tolerance (default 10%, override with
//!   `BENCH_GUARD_STREAM_TOLERANCE`) — both sides feed the same batched
//!   detector, so the comparison isolates decode strategy, or
//! - the batch-routed sharded pipeline at 4 shards fails to reach the
//!   required speedup over sequential (default 1.5x, override with
//!   `BENCH_GUARD_SHARDED_SPEEDUP`). This gate only runs on multi-core
//!   hosts: on a single core the sharded pipeline is sequential work plus
//!   routing overhead, so the gate is skipped with an explicit log line, or
//! - the fused generator→detector pipeline (`FleetSource` feeding a
//!   detection `Session` with no resident trace) falls below the required
//!   end-to-end throughput (default 10k rec/s — deliberately relaxed so a
//!   loaded single-core CI host passes; override with
//!   `BENCH_GUARD_FUSED_MIN_RPS`). Fused throughput includes generation,
//!   so it is gated on an absolute floor rather than compared against the
//!   detect-only baseline, or
//! - the parallel fused pipeline (`ParallelFleetSource` at 4 generator
//!   threads, byte-identical output) fails to reach the required speedup
//!   over the single-threaded fused pipeline (default 1.5x, override with
//!   `BENCH_GUARD_PARFUSED_SPEEDUP`). Like the sharded gate this only runs
//!   on multi-core hosts — on one core parallel generation is the same
//!   work plus channel traffic, so the gate is skipped with a log line, or
//! - a single fused tenant hosted by the `lumen6 serve` daemon (one
//!   worker, mid-run publication disabled) runs more than the allowed
//!   overhead slower than the identical `RunConfig` driven raw through
//!   `Session::run_source` (default 10%, override with
//!   `BENCH_GUARD_SERVE_OVERHEAD`) — the scheduling, locking, and spool
//!   bookkeeping a tenant pays for living inside the daemon.
//!
//! Run with `cargo run --release -p lumen6-bench --bin bench_guard`; a debug
//! build measures debug-build throughput, which is meaningless against a
//! release baseline.

use lumen6_bench::CdnFixture;
use lumen6_detect::multi::MultiLevelDetector;
use lumen6_detect::parallel::{detect_multi_sharded, ShardPlan};
use lumen6_detect::{
    AggLevel, Backend, DetectorBuilder, ReorderBuffer, ScanDetectorConfig, Session, SessionConfig,
    SessionOutcome,
};
use lumen6_scanners::{FleetSource, ParallelFleetSource};
use lumen6_serve::{Daemon, RunConfig, ServeConfig, TenantSpec};
use lumen6_trace::codec::{decode, encode};
use lumen6_trace::{PacketRecord, RecordBatch, TraceReader};
use serde::value::Value;
use std::time::Instant;

const LEVELS: [AggLevel; 3] = [AggLevel::L128, AggLevel::L64, AggLevel::L48];
const RUNS: usize = 5;
/// Records per columnar batch — matches the `detection` bench.
const BATCH: usize = 8_192;

/// Median wall-clock seconds over `RUNS` runs of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Batched sequential multi-level detection over a resident slice — the
/// same hot path `emit_bench_json` measures for the baseline.
fn detect_batched(records: &[PacketRecord]) {
    let mut det = MultiLevelDetector::new(&LEVELS, ScanDetectorConfig::default());
    let mut batch = RecordBatch::with_capacity(BATCH);
    for part in records.chunks(BATCH) {
        batch.clear();
        batch.extend(part.iter().copied());
        det.observe_batch(&batch);
    }
    std::hint::black_box(det.finish());
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detection.json");
    let baseline: Value = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).expect("BENCH_detection.json parses"),
        Err(e) => {
            eprintln!("bench_guard: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let baseline_rps = baseline
        .get("sequential")
        .and_then(|s| s.get("records_per_s"))
        .and_then(as_f64)
        .expect("baseline sequential.records_per_s");
    let tolerance = env_f64("BENCH_GUARD_TOLERANCE", 0.10);
    let max_overhead = env_f64("BENCH_GUARD_SESSION_OVERHEAD", 0.05);
    let stream_tolerance = env_f64("BENCH_GUARD_STREAM_TOLERANCE", 0.10);
    let min_sharded_speedup = env_f64("BENCH_GUARD_SHARDED_SPEEDUP", 1.5);
    let fused_min_rps = env_f64("BENCH_GUARD_FUSED_MIN_RPS", 10_000.0);
    let min_parfused_speedup = env_f64("BENCH_GUARD_PARFUSED_SPEEDUP", 1.5);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let fx = CdnFixture::new();
    let records = fx.filtered.len() as f64;
    let bytes = encode(&fx.filtered).expect("encode fixture trace");

    let sequential_s = median_secs(|| detect_batched(&fx.filtered));
    let session_s = median_secs(|| {
        let mut det = DetectorBuilder::new(ScanDetectorConfig::default())
            .levels(&LEVELS)
            .build(Backend::Sequential);
        let mut buf = ReorderBuffer::new(0);
        let mut ready = Vec::new();
        let mut staged = RecordBatch::with_capacity(BATCH);
        for r in &fx.filtered {
            buf.push(*r, &mut ready);
            for r in ready.drain(..) {
                staged.push(r);
                if staged.len() >= BATCH {
                    det.observe_batch(&staged);
                    staged.clear();
                }
            }
        }
        if !staged.is_empty() {
            det.observe_batch(&staged);
        }
        std::hint::black_box(det.finish());
    });
    let materialized_s = median_secs(|| {
        let recs = decode(&bytes).expect("decode");
        detect_batched(&recs);
    });
    let streaming_s = median_secs(|| {
        let mut reader = TraceReader::new(&bytes[..]).expect("header");
        let mut det = MultiLevelDetector::new(&LEVELS, ScanDetectorConfig::default());
        let mut batch = RecordBatch::with_capacity(BATCH);
        while reader.fill(&mut batch, BATCH).expect("batch") > 0 {
            det.observe_batch(&batch);
        }
        std::hint::black_box(det.finish());
    });

    let mut fused_records = 0u64;
    let fused_s = median_secs(|| {
        let mut src = FleetSource::new(fx.world.clone());
        let det = DetectorBuilder::new(ScanDetectorConfig::default()).levels(&LEVELS);
        let outcome = Session::new(det, Backend::Sequential, SessionConfig::default())
            .run_source(&mut src)
            .expect("fused session runs");
        match outcome {
            SessionOutcome::Finished(rep) => fused_records = rep.records,
            SessionOutcome::Stopped { .. } => unreachable!("no checkpoint stop configured"),
        }
    });

    // Parallel fused gate: same fused workload, generation spread over 4
    // worker threads with the deterministic merge. Only measured where a
    // speedup is physically possible.
    let parfused_s = (host_cores > 1).then(|| {
        median_secs(|| {
            let mut src = ParallelFleetSource::new(fx.world.clone(), 4);
            let det = DetectorBuilder::new(ScanDetectorConfig::default()).levels(&LEVELS);
            let outcome = Session::new(det, Backend::Sequential, SessionConfig::default())
                .run_source(&mut src)
                .expect("parallel fused session runs");
            match outcome {
                SessionOutcome::Finished(rep) => {
                    assert_eq!(
                        rep.records, fused_records,
                        "parallel fused ingested a different record count than fused"
                    );
                }
                SessionOutcome::Stopped { .. } => unreachable!("no checkpoint stop configured"),
            }
        })
    });

    // Serve gate: the same fused run, once raw and once as the daemon's
    // only tenant. Both sides rebuild their world inside the timed region
    // and share the checkpoint cadence; leftover state is wiped between
    // runs so neither side can cheat by resuming finished work.
    let serve_overhead_limit = env_f64("BENCH_GUARD_SERVE_OVERHEAD", 0.10);
    let scratch = std::env::temp_dir().join(format!("lumen6-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("bench scratch dir");
    let raw_ck = scratch.join("raw.l6ck");
    // Long enough that the daemon's fixed per-run costs (thread setup,
    // the final spool publication) amortize the way they do in a
    // long-lived deployment; short runs measure mostly those constants.
    let bench_run = |checkpoint: Option<String>| RunConfig {
        fused: true,
        small: true,
        days: Some(90),
        sequential: true,
        checkpoint,
        ..RunConfig::default()
    };
    let mut serve_records = 0u64;
    let raw_s = median_secs(|| {
        let _ = std::fs::remove_file(&raw_ck);
        let run = bench_run(Some(raw_ck.to_string_lossy().into_owned()));
        let mut src = run.make_source().expect("fleet source");
        match run
            .make_session()
            .run_source(src.as_mut())
            .expect("raw run")
        {
            SessionOutcome::Finished(rep) => {
                // The daemon publishes its final report to the spool;
                // `detect` likewise emits its report. Persist on the raw
                // side too so the gate isolates *hosting* overhead, not
                // report serialization.
                let json = serde_json::to_string_pretty(&rep).expect("report serializes");
                std::fs::write(scratch.join("raw-report.json"), json).expect("write raw report");
                serve_records = rep.records;
            }
            SessionOutcome::Stopped { .. } => unreachable!("no stop_after configured"),
        }
    });
    let spool = scratch.join("spool");
    let serve_s = median_secs(|| {
        let _ = std::fs::remove_dir_all(&spool);
        let daemon = Daemon::new(ServeConfig {
            spool: spool.to_string_lossy().into_owned(),
            workers: 1,
            steps_per_slice: 64,
            publish_every_slices: u64::MAX,
            stop_file: None,
            tenants: vec![TenantSpec {
                name: "bench".into(),
                run: bench_run(None),
            }],
        })
        .expect("daemon builds");
        let summary = daemon.run().expect("daemon runs");
        assert!(!summary.any_failed(), "bench tenant failed");
    });
    let _ = std::fs::remove_dir_all(&scratch);

    let sharded_s = (host_cores > 1).then(|| {
        median_secs(|| {
            std::hint::black_box(detect_multi_sharded(
                &fx.filtered,
                &LEVELS,
                ScanDetectorConfig::default(),
                ShardPlan::with_shards(4),
            ));
        })
    });

    let current_rps = records / sequential_s;
    let overhead = session_s / sequential_s - 1.0;
    let stream_ratio = streaming_s / materialized_s - 1.0;
    println!(
        "bench_guard: sequential {current_rps:.0} rec/s (baseline {baseline_rps:.0}, \
         tolerance {:.0}%)",
        tolerance * 100.0
    );
    println!(
        "bench_guard: session drive {:.0} rec/s, overhead {:+.1}% (limit {:.0}%)",
        records / session_s,
        overhead * 100.0,
        max_overhead * 100.0
    );
    println!(
        "bench_guard: streaming decode {streaming_s:.6}s vs materialized \
         {materialized_s:.6}s, {:+.1}% (limit {:.0}%)",
        stream_ratio * 100.0,
        stream_tolerance * 100.0
    );

    let fused_rps = fused_records as f64 / fused_s;
    println!(
        "bench_guard: fused pipeline {fused_rps:.0} rec/s end-to-end \
         ({fused_records} records, floor {fused_min_rps:.0})"
    );
    let serve_overhead = serve_s / raw_s - 1.0;
    println!(
        "bench_guard: serve single-tenant {:.0} rec/s vs raw {:.0} rec/s, \
         overhead {:+.1}% (limit {:.0}%)",
        serve_records as f64 / serve_s,
        serve_records as f64 / raw_s,
        serve_overhead * 100.0,
        serve_overhead_limit * 100.0
    );

    let mut failed = false;
    if current_rps < baseline_rps * (1.0 - tolerance) {
        eprintln!(
            "bench_guard: FAIL — sequential throughput regressed {:.1}% (allowed {:.1}%)",
            (1.0 - current_rps / baseline_rps) * 100.0,
            tolerance * 100.0
        );
        failed = true;
    }
    if overhead > max_overhead {
        eprintln!(
            "bench_guard: FAIL — session-layer overhead {:.1}% exceeds {:.1}%",
            overhead * 100.0,
            max_overhead * 100.0
        );
        failed = true;
    }
    if stream_ratio > stream_tolerance {
        eprintln!(
            "bench_guard: FAIL — streaming decode {:.1}% slower than materialized \
             (allowed {:.1}%)",
            stream_ratio * 100.0,
            stream_tolerance * 100.0
        );
        failed = true;
    }
    if fused_rps < fused_min_rps {
        eprintln!(
            "bench_guard: FAIL — fused pipeline {fused_rps:.0} rec/s below the \
             {fused_min_rps:.0} rec/s floor"
        );
        failed = true;
    }
    if serve_overhead > serve_overhead_limit {
        eprintln!(
            "bench_guard: FAIL — serve daemon overhead {:.1}% over raw run_source \
             exceeds {:.1}%",
            serve_overhead * 100.0,
            serve_overhead_limit * 100.0
        );
        failed = true;
    }
    match parfused_s {
        None => println!(
            "bench_guard: parallel-fused gate SKIPPED (host_cores={host_cores}): one core \
             cannot speed up generation by splitting it across threads"
        ),
        Some(s) => {
            let speedup = fused_s / s;
            println!(
                "bench_guard: parallel fused (4 gen-threads) {:.0} rec/s, speedup \
                 {speedup:.2}x over fused (required {min_parfused_speedup:.2}x, \
                 host_cores={host_cores})",
                fused_records as f64 / s
            );
            if speedup < min_parfused_speedup {
                eprintln!(
                    "bench_guard: FAIL — parallel fused speedup {speedup:.2}x below \
                     required {min_parfused_speedup:.2}x at 4 gen-threads"
                );
                failed = true;
            }
        }
    }
    match sharded_s {
        None => println!(
            "bench_guard: sharded gate SKIPPED (host_cores={host_cores}): a single core \
             cannot show multi-core speedup — sharding is sequential work plus routing there"
        ),
        Some(s) => {
            let speedup = sequential_s / s;
            println!(
                "bench_guard: sharded 4-shard {:.0} rec/s, speedup {speedup:.2}x \
                 (required {min_sharded_speedup:.2}x, host_cores={host_cores})",
                records / s
            );
            if speedup < min_sharded_speedup {
                eprintln!(
                    "bench_guard: FAIL — sharded speedup {speedup:.2}x below required \
                     {min_sharded_speedup:.2}x at 4 shards"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}
