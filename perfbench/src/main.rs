//! lumen6 benchmark.
//!
//! ```text
//! lumen6-perfbench --workload trace|fused|serve|paper --seed N --seconds S --trace 0|1
//!                  [--scale full|tiny] [--wrong-reference]
//! ```
//!
//! One invocation runs one workload. This process generates the inputs
//! from the seed and computes the reference outputs, both outside any
//! timed region. It then runs the timed workload repeatedly for
//! `--seconds`, each iteration in a fresh child process (this binary
//! again, with `--child`) that runs nothing but the workload, so the
//! child's peak resident memory is the workload's. Back here every output
//! is checked against the reference, and the last line of standard output
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. `--scale tiny`
//! shrinks every input for the self-tests; `--wrong-reference` corrupts
//! the reference to show that the checks fail. See README.md.

mod paper;
mod serve;
mod session;
mod spans;
mod util;
mod workload;

use spans::{totals, Recorder, Span};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use util::{median, quantile, remove_dir};
use workload::{Iteration, Prepared, Scale, Workload};

const USAGE: &str = "usage: lumen6-perfbench --workload trace|fused|serve|paper --seed N \
                     --seconds S --trace 0|1 [--scale full|tiny] [--wrong-reference]";

/// Parsed command line.
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    wrong_reference: bool,
    /// Set in a measuring child: the prepared work directory, the
    /// iteration number, and whether it is traced.
    child: Option<(PathBuf, usize, bool)>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut wrong_reference = false;
    let mut child = None;
    let mut run = 0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                });
            }
            "--scale" => {
                let v = value()?;
                scale = Scale::parse(v).ok_or_else(|| format!("unknown scale {v:?}"))?;
            }
            "--wrong-reference" => wrong_reference = true,
            "--child" => child = Some(PathBuf::from(value()?)),
            "--run" => run = value()?.parse().map_err(|e| format!("--run: {e}"))?,
            "--traced" => traced = value()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        wrong_reference,
        child: child.map(|dir| (dir, run, traced)),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &opts.child {
        Some((work, run, traced)) => measure(&opts, work, *run, *traced).map(|res| {
            println!("{}", serde_json::to_string(&res).unwrap_or_default());
            true
        }),
        None => run(&opts),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lumen6-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- child

/// What one measuring child reports.
#[derive(serde::Serialize, serde::Deserialize)]
struct Measured {
    iteration: Iteration,
    spans: Vec<Span>,
}

/// Worker threads the workloads may use: one per core.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Extra set-up-only repeats per `trace` iteration.
const TRACE_SETUP_REPEATS: usize = 10;

/// Runs one iteration of the workload in this fresh process and reports
/// it with the process's peak resident memory and, when traced, its spans.
fn measure(opts: &Opts, work: &Path, run: usize, traced: bool) -> Result<Measured, String> {
    let mut rec = Recorder::new(traced);
    rec.set_run(run);
    let trace_path = work.join(session::TRACE_FILE);
    let mut iteration = match opts.workload {
        Workload::Trace => {
            let mut it = session::iterate(&session::Input::File(&trace_path), &mut rec)?;
            for _ in 0..TRACE_SETUP_REPEATS {
                it.setup_s.push(session::setup_only(&trace_path)?);
            }
            it
        }
        Workload::Fused => session::iterate(
            &session::Input::Fleet(session::fleet(opts.scale, opts.seed)),
            &mut rec,
        )?,
        Workload::Serve => {
            serve::iterate(&serve::plan(opts.scale, opts.seed), work, nproc(), &mut rec)?
        }
        Workload::Paper => paper::iterate(opts.scale, opts.seed, &mut rec)?,
    };
    let spans = rec.finish();
    if traced {
        layer_from_spans(&spans, &mut iteration);
    }
    iteration.peak_rss_kib =
        util::peak_rss_kib().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(Measured { iteration, spans })
}

/// Writes the traced run's spans to `.bench_out/` under the working
/// directory.
fn write_spans(opts: &Opts, spans: &[Span]) -> Result<(), String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    let json = serde_json::to_string(spans).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Derives a traced iteration's span-based layer metrics.
fn layer_from_spans(spans: &[Span], it: &mut Iteration) {
    let l = &mut it.layer;
    for layer in ["trace", "scanners"] {
        let (calls, _, own) = totals(spans, &format!("{layer}.fill"));
        if calls > 0 {
            l.insert(format!("{layer}.fill_s"), own);
            l.insert(format!("{layer}.fill_calls"), calls as f64);
        }
    }
    if let (Some(&bytes), Some(&fill)) = (l.get("trace.bytes"), l.get("trace.fill_s")) {
        if fill > 0.0 {
            l.insert(
                "trace.mib_per_s".into(),
                bytes / f64::from(1u32 << 20) / fill,
            );
        }
    }
    let (steps, step_s, self_s) = totals(spans, "detect.session.step");
    l.insert("detect.session.steps".into(), steps as f64);
    l.insert("detect.session.step_s".into(), step_s);
    l.insert("detect.session.self_s".into(), self_s);
    if let (Some(&hits), Some(&records)) = (
        l.get("detect.batch.memo_hits"),
        l.get("detect.batch.records"),
    ) {
        if records > 0.0 {
            l.insert("detect.batch.memo_hit_ratio".into(), hits / records);
        }
    }
    // Time the timed region spent inside recorded calls: steps, the
    // daemon run, and the lab and experiment calls.
    let mut covered = step_s;
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let name = s.name.as_str();
        let experiment = name.starts_with("experiments.");
        if !(experiment || matches!(name, "scanners.world_build" | "serve.new" | "serve.run")) {
            continue;
        }
        let dur = s.duration_us() / 1e6;
        *l.entry(format!("{name}_s")).or_insert(0.0) += dur;
        if experiment || name == "serve.run" {
            covered += dur;
        }
    }
    l.insert("tracing.spans".into(), spans.len() as f64);
    l.insert("tracing.unaccounted_s".into(), it.wall_s - covered);
}

// --------------------------------------------------------------- parent

/// The per-invocation work directory; removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = remove_dir(&self.0);
    }
}

/// Prepares inputs and references, runs the measuring child, checks its
/// outputs and prints the result. Returns whether every output passed.
fn run(opts: &Opts) -> Result<bool, String> {
    let w = opts.workload;
    let work = WorkDir(Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        w.name(),
        opts.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let t = Instant::now();
    let mut prep = match w {
        Workload::Trace => session::prepare(
            opts.scale,
            opts.seed,
            Some(&work.0.join(session::TRACE_FILE)),
        )?,
        Workload::Fused => session::prepare(opts.scale, opts.seed, None)?,
        Workload::Serve => serve::prepare(opts.scale, opts.seed, &work.0)?,
        Workload::Paper => paper::prepare(opts.scale, opts.seed)?,
    };
    let prepare_s = t.elapsed().as_secs_f64();
    if opts.wrong_reference {
        for r in &mut prep.reference {
            r.digest ^= 1;
            r.records += 1;
        }
    }

    // One fresh process per iteration until `--seconds` have passed (at
    // least one; with `--trace 1` untraced and traced iterations
    // alternate, at least one of each).
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    // A measuring process that errors or crashes fails all its units.
    let mut crashed: u64 = 0;
    loop {
        let k = iterations.len() + crashed as usize;
        let traced = opts.trace && k % 2 == 1;
        match measure_in_child(&exe, opts, &work.0, k, traced) {
            Ok(m) => {
                iterations.push(m.iteration);
                spans.extend(m.spans);
            }
            Err(e) => {
                eprintln!("lumen6-perfbench: iteration {k}: {e}");
                crashed += 1;
            }
        }
        let untraced_done = iterations.iter().any(|i| !i.traced);
        let traced_done = !opts.trace || iterations.iter().any(|i| i.traced);
        if Instant::now() >= deadline && ((untraced_done && traced_done) || crashed > 0) {
            break;
        }
    }
    drop(work);
    // Left empty unless another invocation is still using it.
    let _ = std::fs::remove_dir(".bench_work");
    if !iterations.iter().any(|i| i.traced == opts.trace) {
        return Err("no iteration completed".into());
    }
    if opts.trace {
        write_spans(opts, &spans)?;
    }

    let (attempted, failed) = check(&prep, &iterations);
    let units = prep.reference.len() as u64;
    let (attempted, failed) = (attempted + crashed * units, failed + crashed * units);
    print_header(opts, &prep, prepare_s, &iterations);
    let metrics = if opts.trace {
        per_layer(&iterations)
    } else {
        end_to_end(&iterations)
    };
    let ratio = failed as f64 / attempted.max(1) as f64;
    println!(
        "# ops_failed_ratio = {ratio} ({failed} failed of {attempted} {}s attempted)",
        w.unit()
    );
    for (name, (value, unit)) in &metrics {
        println!("# {name} = {value} {unit}");
        // The serve workload's units are tenants.
        if w == Workload::Serve && name.starts_with("unit_done_") {
            println!("# {} = {value} {unit}", name.replace("unit_", "tenant_"));
        }
    }
    let correct = failed == 0 && attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// Runs iteration `run` in a fresh measuring process.
fn measure_in_child(
    exe: &Path,
    opts: &Opts,
    work: &Path,
    run: usize,
    traced: bool,
) -> Result<Measured, String> {
    let out = Command::new(exe)
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--scale", opts.scale.name()])
        .args(["--run", &run.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .arg("--child")
        .arg(work)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn measuring process: {e}"))?;
    if !out.status.success() {
        return Err(format!("measuring process failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or("measuring process printed nothing")?;
    serde_json::from_str(last).map_err(|e| format!("measuring process output: {e}"))
}

/// Checks every unit of every iteration against its reference: returns
/// (units attempted, units failed). A unit missing from an iteration's
/// outputs fails.
fn check(prep: &Prepared, iterations: &[Iteration]) -> (u64, u64) {
    let mut failed = 0;
    for it in iterations {
        for reference in &prep.reference {
            let pass = it
                .outputs
                .iter()
                .find(|o| o.unit == reference.unit)
                .is_some_and(|o| prep.rule.passes(o, reference));
            failed += u64::from(!pass);
        }
    }
    ((iterations.len() * prep.reference.len()) as u64, failed)
}

fn print_header(opts: &Opts, prep: &Prepared, prepare_s: f64, iterations: &[Iteration]) {
    let nproc = nproc();
    let traced = iterations.iter().filter(|i| i.traced).count();
    println!(
        "# lumen6-perfbench workload={} seed={} scale={} profile={} nproc={nproc}",
        opts.workload.name(),
        opts.seed,
        opts.scale.name(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    println!("# threads: detect shards={nproc}, serve workers={nproc}, fused generator threads=1");
    println!(
        "# input: {} ({} records, {} bytes); inputs and reference took {prepare_s:.2} s",
        prep.describe, prep.input_records, prep.input_bytes
    );
    println!(
        "# iterations: {} untraced, {traced} traced, over {} s",
        iterations.len() - traced,
        opts.seconds
    );
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

/// End-to-end metrics over the untraced iterations: medians across
/// iterations.
fn end_to_end(iterations: &[Iteration]) -> Metrics {
    let its: Vec<&Iteration> = iterations.iter().filter(|i| !i.traced).collect();
    let med = |f: &dyn Fn(&Iteration) -> f64| {
        median(&its.iter().map(|i| f(i)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let setup: Vec<f64> = its.iter().flat_map(|i| i.setup_s.iter().copied()).collect();
    let mut out = Metrics::new();
    out.insert(
        "records_per_s".into(),
        (med(&|i| i.records as f64 / i.wall_s), "1/s"),
    );
    out.insert("wall_s".into(), (med(&|i| i.wall_s), "s"));
    out.insert("setup_s".into(), (median(&setup).unwrap_or(0.0), "s"));
    out.insert(
        "peak_rss_mb".into(),
        (med(&|i| i.peak_rss_kib as f64 * 1024.0 / 1e6), "MB"),
    );
    let p50 = med(&|i| quantile(&i.unit_done_s, 0.5).unwrap_or(0.0));
    let p90 = med(&|i| quantile(&i.unit_done_s, 0.9).unwrap_or(0.0));
    out.insert("unit_done_p50_s".into(), (p50, "s"));
    out.insert("unit_done_p90_s".into(), (p90, "s"));
    out
}

/// Every per-layer metric with its unit; the traced run prints each, 0
/// where the workload does not exercise the layer.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("trace.fill_s", "s"),
        ("trace.fill_calls", "count"),
        ("trace.records", "count"),
        ("trace.mib_per_s", "MiB/s"),
        ("scanners.world_build_s", "s"),
        ("scanners.fill_s", "s"),
        ("scanners.records", "count"),
        ("detect.session.step_s", "s"),
        ("detect.session.self_s", "s"),
        ("detect.session.steps", "count"),
        ("detect.batch.memo_hit_ratio", "ratio"),
        ("detect.batch.records", "count"),
        ("detect.parallel.channel_full_stalls", "count"),
        ("detect.parallel.batches_sent", "count"),
        ("detect.shard.imbalance", "ratio"),
        ("detect.checkpoint.count", "count"),
        ("detect.checkpoint.bytes", "bytes"),
        ("serve.new_s", "s"),
        ("serve.run_s", "s"),
        ("serve.slices", "count"),
        ("serve.records_per_slice", "count"),
        ("serve.publishes", "count"),
        ("serve.pending_polls", "count"),
        ("serve.spool_bytes", "bytes"),
        ("experiments.cdn_lab_s", "s"),
        ("experiments.mawi_lab_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for name in lumen6_experiments::CDN_EXPERIMENTS {
        v.push((format!("experiments.cdn.{name}_s"), "s"));
    }
    for name in lumen6_experiments::MAWI_EXPERIMENTS {
        v.push((format!("experiments.mawi.{name}_s"), "s"));
    }
    for (n, u) in [
        ("tracing.wall_s", "s"),
        ("tracing.overhead_s", "s"),
        ("tracing.unaccounted_s", "s"),
        ("tracing.spans", "count"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Per-layer metrics: medians over the traced iterations, plus the
/// tracing overhead against the untraced ones.
fn per_layer(iterations: &[Iteration]) -> Metrics {
    let traced: Vec<&Iteration> = iterations.iter().filter(|i| i.traced).collect();
    let untraced: Vec<f64> = iterations
        .iter()
        .filter(|i| !i.traced)
        .map(|i| i.wall_s)
        .collect();
    let traced_wall = median(&traced.iter().map(|i| i.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let mut out = Metrics::new();
    for (name, unit) in layer_metrics() {
        let value = match name.as_str() {
            "tracing.wall_s" => traced_wall,
            "tracing.overhead_s" => traced_wall - median(&untraced).unwrap_or(traced_wall),
            _ => {
                let vals: Vec<f64> = traced
                    .iter()
                    .filter_map(|i| i.layer.get(&name).copied())
                    .collect();
                median(&vals).unwrap_or(0.0)
            }
        };
        out.insert(name, (value, unit));
    }
    out
}
