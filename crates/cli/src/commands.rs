//! CLI command implementations.
//!
//! Commands operate on `.l6tr` trace files (the `lumen6-trace` binary
//! format) so the pipeline can be composed:
//!
//! ```text
//! lumen6 generate cdn --out cdn.l6tr --days 60
//! lumen6 info --trace cdn.l6tr
//! lumen6 detect --trace cdn.l6tr --agg 64 --min-dsts 100 --prefilter
//! lumen6 mawi-detect --trace mawi.l6tr --min-dsts 100
//! lumen6 adaptive --trace cdn.l6tr
//! lumen6 fingerprint --trace cdn.l6tr --threshold 0.1
//! ```

use crate::{Args, CliError};
use lumen6_detect::adaptive::{AdaptiveConfig, AdaptiveIds};
use lumen6_detect::{
    AggLevel, ArtifactFilter, DetectorBuilder, MawiConfig as FhConfig, MawiDetector,
    ScanDetectorConfig, Session, SessionOutcome,
};
use lumen6_report::{duration_human, pkt_count, Table};
use lumen6_scanners::{FleetConfig, World};
use lumen6_serve::{Daemon, RunConfig, ServeConfig, ServeError};
use lumen6_trace::{PacketRecord, TraceReader, TraceWriter};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};

/// Top-level usage text.
pub const USAGE: &str = "\
lumen6 — IPv6 scan detection toolkit

USAGE:
  lumen6 generate <cdn|mawi> --out FILE [--days N] [--seed N] [--small]
                [--intensity F]
  lumen6 generate custom --fleet ACTORS.json --out FILE [--seed N]
  lumen6 info --trace FILE
  lumen6 detect --trace FILE [--agg 128|64|48|32] [--min-dsts N]
                [--timeout-secs N] [--prefilter] [--top N] [--json]
                [--threads N] [--sequential] [--metrics-out FILE.json]
                [--checkpoint FILE] [--checkpoint-every N] [--stop-after N]
                [--watermark-secs N] [--strict] [--batch N]
                [--sketch-precision P] [--flush-idle-secs N]
  lumen6 detect --fused [--days N] [--seed N] [--small] [--intensity F]
                [--gen-threads N]
                (synthesize the CDN fleet stream in-process instead of
                 reading --trace; same detection flags apply. --gen-threads
                 spreads generation over N threads — output is byte-identical
                 for any N; 0 = one per hardware thread)
  lumen6 detect --tail FILE   (follow a growing trace until FILE.eof appears)
  lumen6 detect --config RUN.toml [flags override the file's keys]
  lumen6 serve  --config MANIFEST.toml [--spool DIR] [--workers N]
                [--stop-file FILE]
                (multi-tenant daemon: one checkpointed session per
                 [tenants.<name>] table; touch the stop file — default
                 <spool>/shutdown — for a graceful drain-and-exit)
  lumen6 soak   --out DIR [--intensity F] [--days N] [--seed N] [--small]
                [--gen-threads N] [--min-dsts N] [--checkpoint-every N]
                [--kills N] [--kill-after-checkpoints N] [--sample-ms N]
                [--max-rss-mb N] [--json]
                (full-volume fused endurance run: a clean reference pass,
                 then a kill -9/resume chain with RSS and throughput
                 sampling into DIR/SOAK.json; fails unless the final
                 report and checkpoint are byte-identical to the
                 uninterrupted run)
  lumen6 mawi-detect --trace FILE [--agg N] [--min-dsts N] [--json]
  lumen6 adaptive --trace FILE [--min-dsts N]
  lumen6 fingerprint --trace FILE [--agg N] [--threshold F]
  lumen6 import --pcap FILE --out FILE       (pcap -> .l6tr)
  lumen6 export-pcap --trace FILE --out FILE (.l6tr -> pcap)
  lumen6 backscatter --trace FILE [--agg N] [--min-queriers N]
";

/// Runs a command line (without the program name); writes human output
/// to the given sink (stdout in the binary, a buffer in tests).
pub fn run<W: std::io::Write>(argv: Vec<String>, out: &mut W) -> Result<(), CliError> {
    let args = Args::parse(
        argv,
        &[
            "out",
            "days",
            "seed",
            "agg",
            "min-dsts",
            "timeout-secs",
            "trace",
            "top",
            "threshold",
            "pcap",
            "min-queriers",
            "fleet",
            "threads",
            "metrics-out",
            "checkpoint",
            "checkpoint-every",
            "stop-after",
            "watermark-secs",
            "batch",
            "intensity",
            "sketch-precision",
            "flush-idle-secs",
            "config",
            "tail",
            "spool",
            "workers",
            "stop-file",
            "gen-threads",
            "kills",
            "kill-after-checkpoints",
            "sample-ms",
            "max-rss-mb",
        ],
    )?;
    let cmd = args
        .positional()
        .first()
        .ok_or_else(|| CliError::Usage(USAGE.to_string()))?
        .clone();
    match cmd.as_str() {
        "generate" => generate(&args, out),
        "info" => info(&args, out),
        "detect" => detect(&args, out),
        "serve" => serve(&args, out),
        "soak" => crate::soak::soak(&args, out),
        "mawi-detect" => mawi_detect(&args, out),
        "adaptive" => adaptive(&args, out),
        "fingerprint" => fingerprint_cmd(&args, out),
        "import" => import_pcap(&args, out),
        "export-pcap" => export_pcap(&args, out),
        "backscatter" => backscatter(&args, out),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

fn load_trace(args: &Args) -> Result<Vec<PacketRecord>, CliError> {
    let path = args
        .get("trace")
        .ok_or_else(|| CliError::Usage("--trace FILE is required".into()))?;
    load_trace_file(path)
}

fn load_trace_file(path: &str) -> Result<Vec<PacketRecord>, CliError> {
    let records: Result<Vec<_>, _> = TraceReader::new(File::open(path)?)?.collect();
    Ok(records?)
}

fn agg_of(args: &Args) -> Result<AggLevel, CliError> {
    Ok(AggLevel::new(args.get_parsed::<u8>("agg", 64)?))
}

/// Builds the fleet configuration shared by `generate cdn` and
/// `detect --fused`: `--small`, `--seed`, `--days`, and `--intensity`
/// (a multiplier on every actor's per-session packet budget; 1.0 is the
/// calibrated default, 100.0 approaches the paper's packet volumes).
fn fleet_config(args: &Args, seed: u64, days: Option<u64>) -> Result<FleetConfig, CliError> {
    let mut cfg = if args.has("small") {
        FleetConfig::small()
    } else {
        FleetConfig::default()
    };
    cfg.seed = seed;
    cfg.end_day = days.unwrap_or(cfg.end_day);
    cfg.intensity = args.get_parsed::<f64>("intensity", cfg.intensity)?;
    if !cfg.intensity.is_finite() || cfg.intensity <= 0.0 {
        return Err(CliError::Usage(format!(
            "--intensity must be a positive finite number, got {}",
            cfg.intensity
        )));
    }
    Ok(cfg)
}

/// `generate <cdn|mawi>`: build a synthetic vantage trace file.
fn generate<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let kind = args
        .positional()
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage("generate needs <cdn|mawi>".into()))?;
    let seed = args.get_parsed::<u64>("seed", 42)?;
    let days = args.get_parsed::<u64>("days", 439)?;
    let path = args
        .get("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;

    let records = match kind {
        "cdn" => {
            let cfg = fleet_config(args, seed, Some(days))?;
            World::build(cfg).cdn_trace()
        }
        "mawi" => {
            let mut cfg = if args.has("small") {
                lumen6_mawi::MawiConfig::small()
            } else {
                lumen6_mawi::MawiConfig::default()
            };
            cfg.seed = seed;
            cfg.end_day = days;
            lumen6_mawi::MawiWorld::build(cfg, None).trace()
        }
        "custom" => {
            // A user-defined actor list (JSON array of ScannerActor).
            let fleet_path = args
                .get("fleet")
                .ok_or_else(|| CliError::Usage("generate custom needs --fleet FILE".into()))?;
            let json = std::fs::read_to_string(fleet_path)?;
            let actors: Vec<lumen6_scanners::ScannerActor> = serde_json::from_str(&json)
                .map_err(|e| CliError::Usage(format!("invalid fleet JSON: {e}")))?;
            if actors.is_empty() {
                return Err(CliError::Usage("fleet file defines no actors".into()));
            }
            let streams: Vec<_> = actors.iter().map(|a| a.generate(seed)).collect();
            lumen6_trace::merge_sorted(streams)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown vantage {other:?}; expected cdn or mawi"
            )))
        }
    };

    // Write-temp-then-rename so a concurrent `--tail` reader of the same
    // path never sees a partial trace.
    let tmp = format!("{path}.tmp");
    let mut writer = TraceWriter::new(BufWriter::new(File::create(&tmp)?))?;
    for r in &records {
        writer.append(r)?;
    }
    writer.finish()?.flush()?;
    std::fs::rename(&tmp, path)?;
    writeln!(out, "wrote {} records to {path}", records.len())?;
    Ok(())
}

/// `info`: summary statistics of a trace file.
fn info<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let records = load_trace(args)?;
    let mut srcs = std::collections::HashSet::new();
    let mut dsts = std::collections::HashSet::new();
    let mut by_proto: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for r in &records {
        srcs.insert(r.src);
        dsts.insert(r.dst);
        *by_proto.entry(r.proto.label()).or_default() += 1;
    }
    writeln!(out, "records:        {}", records.len())?;
    if let (Some(first), Some(last)) = (records.first(), records.last()) {
        writeln!(
            out,
            "time range:     {} .. {} ({} days)",
            lumen6_trace::SimTime(first.ts_ms),
            lumen6_trace::SimTime(last.ts_ms),
            (last.ts_ms - first.ts_ms) / lumen6_trace::DAY_MS + 1
        )?;
    }
    writeln!(out, "distinct /128 sources: {}", srcs.len())?;
    writeln!(out, "distinct destinations: {}", dsts.len())?;
    for (proto, n) in by_proto {
        writeln!(out, "{proto:<8} packets: {}", pkt_count(n))?;
    }
    Ok(())
}

/// Resolves the full [`RunConfig`] of a `detect` invocation: the TOML file
/// named by `--config` (if any) supplies the base, and every flag present
/// on the command line overrides the corresponding key. The three source
/// selectors (`--trace`/`--tail`/`--fused`) override as a group, so a flag
/// cleanly retargets a config file that already names a source.
fn run_config(args: &Args) -> Result<RunConfig, CliError> {
    let mut run = match args.get("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            RunConfig::from_toml_str(&text)
                .map_err(|e| CliError::Usage(format!("--config {path}: {e}")))?
        }
        None => RunConfig::default(),
    };
    let trace = args.get("trace");
    let tail = args.get("tail");
    let fused = args.has("fused");
    if usize::from(trace.is_some()) + usize::from(tail.is_some()) + usize::from(fused) > 1 {
        return Err(CliError::Usage(
            "--trace, --tail, and --fused are mutually exclusive".into(),
        ));
    }
    if trace.is_some() || tail.is_some() || fused {
        run.trace = trace.map(str::to_string);
        run.tail = tail.map(str::to_string);
        run.fused = fused;
    }
    run.agg = args.get_parsed("agg", run.agg)?;
    run.min_dsts = args.get_parsed("min-dsts", run.min_dsts)?;
    run.timeout_secs = args.get_parsed("timeout-secs", run.timeout_secs)?;
    if args.get("sketch-precision").is_some() {
        run.sketch_precision = Some(args.get_parsed("sketch-precision", 0)?);
    }
    run.threads = args.get_parsed("threads", run.threads)?;
    run.sequential = run.sequential || args.has("sequential");
    run.watermark_secs = args.get_parsed("watermark-secs", run.watermark_secs)?;
    run.batch = args.get_parsed("batch", run.batch)?;
    run.strict = run.strict || args.has("strict");
    if let Some(path) = args.get("checkpoint") {
        run.checkpoint = Some(path.to_string());
    }
    run.checkpoint_every = args.get_parsed("checkpoint-every", run.checkpoint_every)?;
    if args.get("stop-after").is_some() {
        run.stop_after = Some(args.get_parsed("stop-after", 0)?);
    }
    run.flush_idle_secs = args.get_parsed("flush-idle-secs", run.flush_idle_secs)?;
    if args.get("days").is_some() {
        run.days = Some(args.get_parsed("days", 0)?);
    }
    run.seed = args.get_parsed("seed", run.seed)?;
    run.small = run.small || args.has("small");
    run.intensity = args.get_parsed("intensity", run.intensity)?;
    run.gen_threads = args.get_parsed("gen-threads", run.gen_threads)?;
    if run.checkpoint.is_none()
        && (args.get("checkpoint-every").is_some() || args.get("stop-after").is_some())
    {
        return Err(CliError::Usage(
            "--checkpoint-every/--stop-after need --checkpoint FILE".into(),
        ));
    }
    Ok(run)
}

/// `detect`: the paper's large-scale scan detection over a trace file —
/// or, with `--fused`, over the fleet generators directly (no trace file
/// at any point; the paper-scale path).
///
/// All backends dispatch through one [`DetectorBuilder`] code path: the
/// sharded parallel pipeline by default (`--threads N` to pin the shard
/// count), the single-threaded reference detector with `--sequential`.
/// Without `--prefilter` the input is streamed through a fault-tolerant
/// [`Session`] in bounded memory — checkpoint/resume with
/// `--checkpoint FILE` (fused runs resume by deterministic regeneration),
/// out-of-order tolerance with `--watermark-secs N`, and
/// quarantine-and-skip of corrupt records unless `--strict`.
/// Prefiltering needs the whole trace resident and is incompatible with
/// the session flags and with `--fused`.
fn detect<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    // Delta against the process-global registry so the emitted snapshot
    // covers exactly this command run (tests share one process).
    let metrics_baseline = lumen6_obs::MetricsRegistry::global().snapshot();
    // `--sketch-precision P` (or `sketch_precision` in the config file)
    // switches distinct-destination counting from exact sets to
    // spill-to-HyperLogLog at precision P (memory per spilled source: 2^P
    // registers; error ≈ 1.04/sqrt(2^P)). Out-of-range values are clamped
    // to the supported 4..=16 at construction.
    let run = run_config(args)?;
    let config = run.detector_config();
    let agg = config.agg;
    let builder = DetectorBuilder::new(config);
    let backend = run.backend();
    let session = run.session_config();

    let mut session_stats = None;
    let report = if args.has("prefilter") {
        if session.checkpoint.is_some() || session.watermark_ms > 0 {
            return Err(CliError::Usage(
                "--checkpoint/--watermark-secs are incompatible with --prefilter \
                 (prefiltering needs the whole trace resident)"
                    .into(),
            ));
        }
        if run.fused || run.tail.is_some() {
            return Err(CliError::Usage(
                "--fused/--tail are incompatible with --prefilter (prefiltering \
                 needs the whole trace resident; those sources never materialize it)"
                    .into(),
            ));
        }
        let Some(path) = &run.trace else {
            return Err(CliError::Usage("--trace FILE is required".into()));
        };
        let records = load_trace_file(path)?;
        let (kept, filter_report) = ArtifactFilter::default().filter(&records);
        writeln!(
            out,
            "prefilter: removed {} of {} packets ({} sources)",
            filter_report.removed_packets,
            filter_report.input_packets,
            filter_report.removed_sources
        )?;
        // Feed the resident records through the columnar batch path: same
        // results as per-record observe, one run-state lookup per
        // (source, batch).
        let mut det = builder.build(backend);
        let mut batch = lumen6_trace::RecordBatch::with_capacity(session.batch.max(1));
        for part in kept.chunks(session.batch.max(1)) {
            batch.clear();
            batch.extend(part.iter().copied());
            det.observe_batch(&batch);
        }
        det.finish().remove(&agg).ok_or_else(|| {
            CliError::Internal(format!("level /{} missing from report", agg.len()))
        })?
    } else {
        // Stream through the fault-tolerant session so peak memory does not
        // scale with trace size: off disk with --trace, following a growing
        // file with --tail, or synthesized in-process from the fleet
        // generators with --fused (the generator→detector pipeline never
        // touches a trace file).
        let announce = session.checkpoint.is_some();
        run.validate().map_err(CliError::Usage)?;
        let mut src = run.make_source()?;
        let outcome = Session::new(builder, backend, session).run_source(src.as_mut())?;
        match outcome {
            SessionOutcome::Stopped {
                checkpoints_written,
                records_done,
            } => {
                return Err(CliError::Stopped {
                    checkpoints_written,
                    records_done,
                })
            }
            SessionOutcome::Finished(mut rep) => {
                // Surface session-layer accounting whenever checkpointing is
                // on or anything was dropped/skipped; quiet for the plain
                // sorted-trace fast path. Restored counters make a resumed
                // run print the same line as an uninterrupted one.
                if announce || rep.late_dropped > 0 || rep.decode_skipped > 0 {
                    session_stats = Some((
                        rep.records,
                        rep.late_dropped,
                        rep.decode_skipped,
                        rep.checkpoints_written,
                    ));
                }
                rep.reports.remove(&agg).ok_or_else(|| {
                    CliError::Internal(format!("level /{} missing from report", agg.len()))
                })?
            }
        }
    };
    if args.has("json") {
        let json = serde_json::to_string_pretty(&report.events)
            .map_err(|e| CliError::Internal(format!("serialize scan events: {e}")))?;
        writeln!(out, "{json}")?;
        // Metrics go to their own file, so they compose with --json.
        emit_metrics(args, &metrics_baseline, out, true)?;
        return Ok(());
    }
    emit_metrics(args, &metrics_baseline, out, false)?;
    if let Some((records, late, skipped, ckpts)) = session_stats {
        writeln!(
            out,
            "session: {records} records, {late} late-dropped, {skipped} skipped, \
             {ckpts} checkpoints"
        )?;
    }
    writeln!(
        out,
        "{} scans from {} sources, {} packets",
        report.scans(),
        report.sources(),
        pkt_count(report.packets())
    )?;
    let top = args.get_parsed::<usize>("top", 20)?;
    let mut t = Table::new(vec![
        "source", "start", "duration", "packets", "dsts", "ports",
    ]);
    for c in 3..=5 {
        t.align_right(c);
    }
    let mut events: Vec<_> = report.events.iter().collect();
    events.sort_by_key(|e| std::cmp::Reverse(e.packets));
    for e in events.into_iter().take(top) {
        t.row(vec![
            e.source.to_string(),
            lumen6_trace::SimTime(e.start_ms).to_string(),
            duration_human(e.duration_ms()),
            e.packets.to_string(),
            e.distinct_dsts.to_string(),
            e.num_ports().to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// Maps daemon errors onto the CLI error taxonomy (exit code 2 for all of
/// them; tenant-level failures are reported via [`CliError::Serve`]).
fn serve_err(e: ServeError) -> CliError {
    match e {
        ServeError::Io(e) => CliError::Io(e),
        ServeError::Codec(e) => CliError::Codec(e),
        ServeError::Session(e) => e.into(),
        ServeError::Config(m) => CliError::Usage(m),
    }
}

/// `serve`: the multi-tenant detection daemon. Loads a TOML manifest with
/// one `[tenants.<name>]` table per tenant (each table is a [`RunConfig`],
/// the same schema `detect --config` reads), lays out the spool, and runs
/// every tenant concurrently with checkpoint-based crash recovery until
/// all streams finish or the stop file appears. Exits nonzero if any
/// tenant ends in the `failed` state.
fn serve<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let path = args
        .get("config")
        .ok_or_else(|| CliError::Usage("serve needs --config MANIFEST.toml".into()))?;
    let text = std::fs::read_to_string(path)?;
    let mut cfg = ServeConfig::from_toml_str(&text)
        .map_err(|e| CliError::Usage(format!("--config {path}: {e}")))?;
    if let Some(spool) = args.get("spool") {
        cfg.spool = spool.to_string();
    }
    cfg.workers = args.get_parsed("workers", cfg.workers)?;
    if let Some(stop) = args.get("stop-file") {
        cfg.stop_file = Some(stop.to_string());
    }
    let daemon = Daemon::new(cfg).map_err(serve_err)?;
    writeln!(
        out,
        "serve: {} tenant(s), stop file {}",
        daemon.tenant_count(),
        daemon.stop_file().display()
    )?;
    out.flush()?;
    let summary = daemon.run().map_err(serve_err)?;
    let mut failed = 0usize;
    for t in &summary.tenants {
        let resumed = if t.resumed { ", resumed" } else { "" };
        let error = t
            .error
            .as_ref()
            .map(|e| format!(" — {e}"))
            .unwrap_or_default();
        writeln!(
            out,
            "tenant {}: {} ({} records, {} slices{resumed}){error}",
            t.name, t.state, t.records, t.slices
        )?;
        if t.state == "failed" {
            failed += 1;
        }
    }
    writeln!(
        out,
        "serve: {}",
        if summary.stopped {
            "stopped by stop file; tenants checkpointed for resume"
        } else {
            "all tenants done"
        }
    )?;
    if failed > 0 {
        return Err(CliError::Serve(format!("{failed} tenant(s) failed")));
    }
    Ok(())
}

/// Writes the run's metric delta to `--metrics-out FILE.json` (if given)
/// and, unless the main output is JSON, prints a compact summary table.
fn emit_metrics<W: std::io::Write>(
    args: &Args,
    baseline: &lumen6_obs::MetricsSnapshot,
    out: &mut W,
    quiet: bool,
) -> Result<(), CliError> {
    let Some(path) = args.get("metrics-out") else {
        return Ok(());
    };
    let delta = lumen6_obs::MetricsRegistry::global()
        .snapshot()
        .delta(baseline);
    let json = serde_json::to_string_pretty(&delta)
        .map_err(|e| CliError::Internal(format!("serialize metrics snapshot: {e}")))?;
    // Atomic publication: tools polling the metrics file (CI's
    // check_metrics, dashboards) must never observe a torn write.
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, path)?;
    if !quiet {
        writeln!(out, "metrics -> {path}")?;
        writeln!(out, "{}", delta.summary_table())?;
    }
    Ok(())
}

/// `mawi-detect`: per-day Fukuda–Heidemann-extended detection.
fn mawi_detect<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let records = load_trace(args)?;
    let det = MawiDetector::new(FhConfig {
        agg: agg_of(args)?,
        min_dsts: args.get_parsed("min-dsts", 100)?,
        ..Default::default()
    });
    let start = records
        .first()
        .map(|r| r.ts_ms / lumen6_trace::DAY_MS)
        .unwrap_or(0);
    let end = records
        .last()
        .map(|r| r.ts_ms / lumen6_trace::DAY_MS + 1)
        .unwrap_or(0);
    let mut all = Vec::new();
    for (day, slice) in lumen6_mawi::split_days(&records, start, end) {
        for scan in det.detect(slice) {
            all.push((day, scan));
        }
    }
    if args.has("json") {
        let json = serde_json::to_string_pretty(&all)
            .map_err(|e| CliError::Internal(format!("serialize scans: {e}")))?;
        writeln!(out, "{json}")?;
        return Ok(());
    }
    writeln!(out, "{} per-day scans detected", all.len())?;
    let mut t = Table::new(vec![
        "day", "source", "services", "packets", "dsts", "icmpv6",
    ]);
    t.align_right(0).align_right(3).align_right(4);
    for (day, s) in all.iter().take(40) {
        t.row(vec![
            day.to_string(),
            s.source.to_string(),
            s.services.len().to_string(),
            s.packets.to_string(),
            s.distinct_dsts.to_string(),
            s.is_icmpv6().to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// `adaptive`: adaptive-aggregation alerting with collateral estimates.
fn adaptive<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let records = load_trace(args)?;
    let ids = AdaptiveIds::new(AdaptiveConfig {
        min_dsts: args.get_parsed("min-dsts", 100)?,
        ..Default::default()
    });
    let alerts = ids.analyze(&records);
    writeln!(out, "{} alerts", alerts.len())?;
    let mut t = Table::new(vec![
        "prefix",
        "level",
        "packets",
        "dsts",
        "srcs",
        "collateral",
        "subsumed",
    ]);
    for c in 2..=6 {
        t.align_right(c);
    }
    for a in alerts.iter().take(40) {
        t.row(vec![
            a.prefix.to_string(),
            format!("/{}", a.prefix.len()),
            a.packets.to_string(),
            a.distinct_dsts.to_string(),
            a.contributing_srcs.to_string(),
            a.collateral_srcs.to_string(),
            a.subsumed.len().to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// `fingerprint`: detect scans, then cluster them by traffic behavior.
fn fingerprint_cmd<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let records = load_trace(args)?;
    let config = ScanDetectorConfig {
        agg: agg_of(args)?,
        min_dsts: args.get_parsed("min-dsts", 100)?,
        keep_dsts: true,
        ..Default::default()
    };
    let report = lumen6_detect::detector::detect(&records, config);
    let threshold = args.get_parsed::<f64>("threshold", 0.10)?;
    let clusters = lumen6_detect::fingerprint::cluster(&report.events, threshold);
    writeln!(
        out,
        "{} scan events -> {} behavior clusters (threshold {threshold})",
        report.events.len(),
        clusters.len()
    )?;
    let mut t = Table::new(vec![
        "cluster",
        "events",
        "sources",
        "~packets",
        "~ports",
        "top-port frac",
        "example source",
    ]);
    for c in 0..=4 {
        t.align_right(c);
    }
    for (i, c) in clusters.iter().enumerate().take(25) {
        let sources: std::collections::HashSet<_> =
            c.members.iter().map(|&m| report.events[m].source).collect();
        t.row(vec![
            i.to_string(),
            c.members.len().to_string(),
            sources.len().to_string(),
            format!("{:.0}", c.centroid.log_packets.exp2()),
            format!("{:.0}", c.centroid.log_ports.exp2() - 1.0),
            format!("{:.2}", c.centroid.top_port_frac),
            report.events[c.members[0]].source.to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// `import`: convert a pcap capture to the native trace format.
fn import_pcap<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let pcap_path = args
        .get("pcap")
        .ok_or_else(|| CliError::Usage("--pcap FILE is required".into()))?;
    let out_path = args
        .get("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;
    let imported = lumen6_trace::pcap::read_pcap(BufReader::new(File::open(pcap_path)?))
        .map_err(|e| CliError::Usage(format!("pcap import failed: {e}")))?;
    let mut records = imported.records;
    // Captures are usually time-sorted, but the codec requires it.
    lumen6_trace::sort_by_time(&mut records);
    let tmp = format!("{out_path}.tmp");
    let mut writer = TraceWriter::new(BufWriter::new(File::create(&tmp)?))?;
    for r in &records {
        writer.append(r)?;
    }
    writer.finish()?.flush()?;
    std::fs::rename(&tmp, out_path)?;
    writeln!(
        out,
        "imported {} IPv6 records ({} packets skipped) -> {out_path}",
        records.len(),
        imported.skipped
    )?;
    Ok(())
}

/// `export-pcap`: write a trace as real IPv6 packets for Wireshark/tcpdump.
fn export_pcap<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let records = load_trace(args)?;
    let out_path = args
        .get("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;
    let tmp = format!("{out_path}.tmp");
    let n = lumen6_trace::pcap::write_pcap(&records, BufWriter::new(File::create(&tmp)?))
        .map_err(|e| CliError::Usage(format!("pcap export failed: {e}")))?;
    std::fs::rename(&tmp, out_path)?;
    writeln!(out, "wrote {n} packets to {out_path}")?;
    Ok(())
}

/// `backscatter`: simulate the reverse-zone authority's PTR stream for the
/// trace and run querier-diversity detection on it.
fn backscatter<W: std::io::Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    use lumen6_backscatter::{generate_backscatter, BackscatterConfig, BackscatterDetector};
    let records = load_trace(args)?;
    let queries = generate_backscatter(&records, &BackscatterConfig::default(), 42);
    let det = BackscatterDetector {
        agg_len: args.get_parsed::<u8>("agg", 64)?,
        min_queriers: args.get_parsed("min-queriers", 20)?,
    };
    let flagged = det.detect(&queries);
    writeln!(
        out,
        "{} PTR queries observed; {} sources flagged (≥{} distinct resolvers)",
        queries.len(),
        flagged.len(),
        det.min_queriers
    )?;
    let mut t = Table::new(vec!["source", "queriers", "queries", "first", "last"]);
    t.align_right(1).align_right(2);
    for s in flagged.iter().take(25) {
        t.row(vec![
            s.source.to_string(),
            s.queriers.to_string(),
            s.queries.to_string(),
            lumen6_trace::SimTime(s.first_ms).to_string(),
            lumen6_trace::SimTime(s.last_ms).to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(line: &[&str]) -> (String, Result<(), CliError>) {
        let mut buf = Vec::new();
        let res = run(
            line.iter().map(std::string::ToString::to_string).collect(),
            &mut buf,
        );
        (String::from_utf8(buf).unwrap(), res)
    }

    #[test]
    fn no_command_is_usage() {
        let (_, res) = run_cli(&[]);
        assert!(matches!(res, Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_command_is_usage() {
        let (_, res) = run_cli(&["frobnicate"]);
        assert!(matches!(res, Err(CliError::Usage(_))));
    }

    #[test]
    fn detect_requires_trace() {
        let (_, res) = run_cli(&["detect"]);
        assert!(matches!(res, Err(CliError::Usage(_))));
    }

    #[test]
    fn detect_config_file_matches_flags_and_flags_override() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-config-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.l6tr");
        let p = trace.to_str().unwrap();
        let (_, res) = run_cli(&[
            "generate", "cdn", "--out", p, "--days", "3", "--seed", "3", "--small",
        ]);
        res.unwrap();

        let (flags_out, res) = run_cli(&[
            "detect",
            "--trace",
            p,
            "--min-dsts",
            "5",
            "--sequential",
            "--json",
        ]);
        res.unwrap();

        // The same run expressed as a config file.
        let cfg = dir.join("run.toml");
        std::fs::write(
            &cfg,
            format!("trace = \"{p}\"\nmin_dsts = 5\nsequential = true\n"),
        )
        .unwrap();
        let c = cfg.to_str().unwrap();
        let (cfg_out, res) = run_cli(&["detect", "--config", c, "--json"]);
        res.unwrap();
        assert_eq!(cfg_out, flags_out, "config-file run differs from flag run");

        // A flag overrides the file's key: min_dsts back down to 5 from an
        // impossible threshold.
        let strict_cfg = dir.join("strict.toml");
        std::fs::write(
            &strict_cfg,
            format!("trace = \"{p}\"\nmin_dsts = 1000000000\nsequential = true\n"),
        )
        .unwrap();
        let sc = strict_cfg.to_str().unwrap();
        let (over_out, res) = run_cli(&["detect", "--config", sc, "--min-dsts", "5", "--json"]);
        res.unwrap();
        assert_eq!(over_out, flags_out, "flag did not override config key");

        // Unknown keys are rejected with the offending name.
        let bad_cfg = dir.join("bad.toml");
        std::fs::write(&bad_cfg, "trace = \"x\"\nmin_dst = 5\n").unwrap();
        let (_, res) = run_cli(&["detect", "--config", bad_cfg.to_str().unwrap()]);
        let Err(CliError::Usage(msg)) = res else {
            panic!("expected usage error, got {res:?}");
        };
        assert!(msg.contains("min_dst"), "{msg}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_requires_valid_manifest() {
        let (_, res) = run_cli(&["serve"]);
        assert!(matches!(res, Err(CliError::Usage(_))));

        let dir = std::env::temp_dir().join(format!("lumen6-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("serve.toml");
        // A tenant with no ingest source fails manifest validation.
        std::fs::write(&manifest, "[tenants.empty]\nmin_dsts = 5\n").unwrap();
        let (_, res) = run_cli(&["serve", "--config", manifest.to_str().unwrap()]);
        let Err(CliError::Usage(msg)) = res else {
            panic!("expected usage error, got {res:?}");
        };
        assert!(msg.contains("no ingest source"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_then_detect_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();

        let (out, res) = run_cli(&[
            "generate", "cdn", "--out", p, "--days", "5", "--seed", "3", "--small",
        ]);
        res.unwrap();
        assert!(out.contains("wrote"));

        let (out, res) = run_cli(&["info", "--trace", p]);
        res.unwrap();
        assert!(out.contains("records:"));
        assert!(out.contains("TCP"));

        let (out, res) = run_cli(&["detect", "--trace", p, "--prefilter", "--top", "5"]);
        res.unwrap();
        assert!(out.contains("scans from"), "{out}");

        let (out, res) = run_cli(&["adaptive", "--trace", p]);
        res.unwrap();
        assert!(out.contains("alerts"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_detect_matches_sequential() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&[
            "generate", "cdn", "--out", p, "--days", "6", "--seed", "9", "--small",
        ])
        .1
        .unwrap();

        let (seq, res) = run_cli(&["detect", "--trace", p, "--min-dsts", "50", "--sequential"]);
        res.unwrap();
        for threads in ["1", "2", "4"] {
            let (par, res) = run_cli(&[
                "detect",
                "--trace",
                p,
                "--min-dsts",
                "50",
                "--threads",
                threads,
            ]);
            res.unwrap();
            assert_eq!(
                par, seq,
                "--threads {threads} output differs from --sequential"
            );
        }
        // Default (auto thread count) also matches.
        let (auto, res) = run_cli(&["detect", "--trace", p, "--min-dsts", "50"]);
        res.unwrap();
        assert_eq!(auto, seq);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_size_does_not_change_output() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&[
            "generate", "cdn", "--out", p, "--days", "6", "--seed", "11", "--small",
        ])
        .1
        .unwrap();

        let (reference, res) =
            run_cli(&["detect", "--trace", p, "--min-dsts", "50", "--sequential"]);
        res.unwrap();
        for batch in ["1", "17", "100000"] {
            let (out, res) = run_cli(&[
                "detect",
                "--trace",
                p,
                "--min-dsts",
                "50",
                "--sequential",
                "--batch",
                batch,
            ]);
            res.unwrap();
            assert_eq!(out, reference, "--batch {batch} output differs");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mawi_generate_and_detect() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-mawi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.l6tr");
        let p = path.to_str().unwrap();

        let (_, res) = run_cli(&[
            "generate", "mawi", "--out", p, "--days", "4", "--seed", "3", "--small",
        ]);
        res.unwrap();
        let (out, res) = run_cli(&["mawi-detect", "--trace", p, "--min-dsts", "5"]);
        res.unwrap();
        assert!(out.contains("per-day scans"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_output_is_valid() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&["generate", "cdn", "--out", p, "--days", "3", "--small"])
            .1
            .unwrap();
        let (out, res) = run_cli(&["detect", "--trace", p, "--json", "--min-dsts", "50"]);
        res.unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed.is_array());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_command_clusters() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&["generate", "cdn", "--out", p, "--days", "7", "--small"])
            .1
            .unwrap();
        let (out, res) = run_cli(&["fingerprint", "--trace", p, "--min-dsts", "50"]);
        res.unwrap();
        assert!(out.contains("behavior clusters"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pcap_export_import_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-pcap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = dir.join("t.l6tr");
        let p = dir.join("t.pcap");
        let t2 = dir.join("t2.l6tr");
        run_cli(&[
            "generate",
            "cdn",
            "--out",
            t.to_str().unwrap(),
            "--days",
            "3",
            "--small",
        ])
        .1
        .unwrap();
        let (o, res) = run_cli(&[
            "export-pcap",
            "--trace",
            t.to_str().unwrap(),
            "--out",
            p.to_str().unwrap(),
        ]);
        res.unwrap();
        assert!(o.contains("wrote"));
        let (o, res) = run_cli(&[
            "import",
            "--pcap",
            p.to_str().unwrap(),
            "--out",
            t2.to_str().unwrap(),
        ]);
        res.unwrap();
        assert!(o.contains("0 packets skipped"), "{o}");
        // Detection over the re-imported trace matches the original.
        let (a, _) = run_cli(&["detect", "--trace", t.to_str().unwrap(), "--min-dsts", "50"]);
        let (b, _) = run_cli(&[
            "detect",
            "--trace",
            t2.to_str().unwrap(),
            "--min-dsts",
            "50",
        ]);
        assert_eq!(
            a.lines().next().unwrap(),
            b.lines().next().unwrap(),
            "same scans/sources/packets summary"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backscatter_command_flags_scanners() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-bs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&["generate", "cdn", "--out", p, "--days", "5", "--small"])
            .1
            .unwrap();
        let (out, res) = run_cli(&["backscatter", "--trace", p, "--min-queriers", "30"]);
        res.unwrap();
        assert!(out.contains("sources flagged"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn custom_fleet_from_json() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fleet = dir.join("fleet.json");
        let out = dir.join("custom.l6tr");
        // One single-source hitlist scanner, defined entirely in JSON.
        let actors = vec![lumen6_scanners::ScannerActor {
            name: "json-scanner".into(),
            asn: 65_001,
            sources: lumen6_scanners::SourceSampler::Single(0x2001_0db8 << 96 | 1),
            targets: lumen6_scanners::TargetSampler::Hitlist(
                (1..=300u128).map(|i| i << 8).collect(),
            ),
            ports: lumen6_scanners::PortSampler::Single(lumen6_trace::Transport::Tcp, 22),
            schedule: lumen6_scanners::Schedule::continuous(0, 3, 400),
            probe_len: 60,
        }];
        std::fs::write(&fleet, serde_json::to_string_pretty(&actors).unwrap()).unwrap();

        let (o, res) = run_cli(&[
            "generate",
            "custom",
            "--fleet",
            fleet.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]);
        res.unwrap();
        assert!(o.contains("wrote 1200 records"), "{o}");
        let (o, res) = run_cli(&["detect", "--trace", out.to_str().unwrap(), "--agg", "128"]);
        res.unwrap();
        assert!(o.contains("1 sources"), "{o}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn custom_fleet_bad_json_is_usage_error() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-badfleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fleet = dir.join("fleet.json");
        std::fs::write(&fleet, "{not json").unwrap();
        let (_, res) = run_cli(&[
            "generate",
            "custom",
            "--fleet",
            fleet.to_str().unwrap(),
            "--out",
            dir.join("x.l6tr").to_str().unwrap(),
        ]);
        assert!(matches!(res, Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let (_, res) = run_cli(&["info", "--trace", "/nonexistent/x.l6tr"]);
        assert!(matches!(res, Err(CliError::Io(_))));
    }

    #[test]
    fn fused_detect_matches_trace_file_detect() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-fused-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        let params = ["--days", "6", "--seed", "13", "--small"];
        let mut gen = vec!["generate", "cdn", "--out", p];
        gen.extend(params);
        run_cli(&gen).1.unwrap();

        let (via_file, res) = run_cli(&["detect", "--trace", p, "--min-dsts", "50"]);
        res.unwrap();
        let mut fused = vec!["detect", "--fused", "--min-dsts", "50"];
        fused.extend(params);
        let (via_fused, res) = run_cli(&fused);
        res.unwrap();
        assert_eq!(via_fused, via_file, "fused output differs from trace file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fused_detect_checkpoint_stop_and_resume() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-fusedck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("state.l6ck");
        let base = |extra: &[&'static str]| {
            let mut v = vec![
                "detect",
                "--fused",
                "--small",
                "--days",
                "6",
                "--min-dsts",
                "50",
                "--checkpoint",
                ck.to_str().unwrap(),
                "--checkpoint-every",
                "2000",
            ];
            v.extend(extra);
            v
        };
        let (_, res) = run_cli(&base(&["--stop-after", "1"]));
        let Err(CliError::Stopped {
            checkpoints_written,
            records_done,
        }) = res
        else {
            panic!("expected Stopped, got {res:?}");
        };
        assert_eq!(checkpoints_written, 1);
        assert_eq!(records_done, 2000);
        // Resume to completion; output matches an uninterrupted run with
        // the same checkpoint cadence (fresh checkpoint path).
        let (resumed, res) = run_cli(&base(&[]));
        res.unwrap();
        std::fs::remove_file(&ck).unwrap();
        let (clean, res) = run_cli(&base(&[]));
        res.unwrap();
        assert_eq!(resumed, clean, "resumed fused run differs from clean run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_intensity_scales_volume() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-intens-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let count = |intensity: &str| {
            let path = dir.join(format!("t{intensity}.l6tr"));
            let (out, res) = run_cli(&[
                "generate",
                "cdn",
                "--out",
                path.to_str().unwrap(),
                "--days",
                "4",
                "--small",
                "--intensity",
                intensity,
            ]);
            res.unwrap();
            out.split_whitespace()
                .nth(1)
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        let base = count("1.0");
        let double = count("2.0");
        let half = count("0.5");
        assert!(
            double > base && base > half,
            "intensity did not scale volume: 0.5x={half} 1x={base} 2x={double}"
        );
        let (_, res) = run_cli(&[
            "generate",
            "cdn",
            "--out",
            dir.join("bad.l6tr").to_str().unwrap(),
            "--intensity",
            "-3",
        ]);
        assert!(matches!(res, Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sketch_precision_flag_bounds_memory_not_results_shape() {
        let dir = std::env::temp_dir().join(format!("lumen6-cli-sketch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.l6tr");
        let p = path.to_str().unwrap();
        run_cli(&[
            "generate", "cdn", "--out", p, "--days", "6", "--seed", "5", "--small",
        ])
        .1
        .unwrap();
        // High precision: sketched counts are near-exact, so the summary
        // (scans/sources) matches the exact-set run on this workload.
        let (exact, res) = run_cli(&["detect", "--trace", p, "--min-dsts", "50"]);
        res.unwrap();
        let (sketched, res) = run_cli(&[
            "detect",
            "--trace",
            p,
            "--min-dsts",
            "50",
            "--sketch-precision",
            "16",
        ]);
        res.unwrap();
        assert_eq!(
            sketched.lines().next().unwrap(),
            exact.lines().next().unwrap(),
            "precision-16 sketch changed the scans/sources summary"
        );
        // Out-of-range precision is clamped, not an error.
        let (_, res) = run_cli(&[
            "detect",
            "--trace",
            p,
            "--min-dsts",
            "50",
            "--sketch-precision",
            "99",
        ]);
        res.unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
