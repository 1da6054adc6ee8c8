//! The `trace` and `fused` workloads: one detection [`Session`] at the
//! paper's three levels on the default sharded backend, fed either from a
//! trace file on disk (`lumen6 detect --trace`) or straight from the fleet
//! generator (`lumen6 detect --fused`).

use crate::spans::{Recorder, TimedSource};
use crate::workload::{detect_layer, Iteration, Output, Prepared, Rule, Scale};
use lumen6_detect::{
    AggLevel, Backend, DetectorBuilder, Session, SessionConfig, SessionReport, ShardPlan, Step,
};
use lumen6_obs::MetricsRegistry;
use lumen6_scanners::{FleetConfig, FleetSource, World};
use lumen6_serve::RunConfig;
use lumen6_trace::{FileStreamSource, Source, TraceWriter};
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

/// Packet-volume multiplier of the `fused` workload.
pub const FUSED_INTENSITY: u64 = 2;

/// The trace file inside the work directory.
pub const TRACE_FILE: &str = "trace.l6tr";

/// The fleet both workloads simulate at `seed`, at intensity 1.
pub fn fleet(scale: Scale, seed: u64) -> FleetConfig {
    match scale {
        Scale::Full => FleetConfig {
            seed,
            ..FleetConfig::default()
        },
        Scale::Tiny => FleetConfig {
            seed,
            end_day: 14,
            ..FleetConfig::small()
        },
    }
}

/// The detector `lumen6 detect` configures, at the paper's three levels.
fn builder() -> DetectorBuilder {
    DetectorBuilder::new(RunConfig::default().detector_config()).levels(&AggLevel::PAPER_LEVELS)
}

/// Generates the intensity-1 trace at `seed`, optionally writes it to
/// `trace_out`, and computes the reference: a sequential detector fed the
/// in-memory records one by one — no decode, no session, no sharding.
pub fn prepare(scale: Scale, seed: u64, trace_out: Option<&Path>) -> Result<Prepared, String> {
    let records = World::build(fleet(scale, seed)).cdn_trace();
    let mut input_bytes = 0;
    if let Some(path) = trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = TraceWriter::new(BufWriter::new(file)).map_err(|e| e.to_string())?;
        for r in &records {
            w.append(r).map_err(|e| e.to_string())?;
        }
        // Flushed to disk here so that write-back does not land in the
        // timed runs.
        w.finish()
            .map_err(|e| e.to_string())?
            .into_inner()
            .map_err(|e| e.to_string())?
            .sync_all()
            .map_err(|e| e.to_string())?;
        input_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    }
    let mut det = builder().build(Backend::Sequential);
    for r in &records {
        det.observe(r);
    }
    let reference = Output::from_reports("session", &det.finish(), records.len() as u64);
    let days = fleet(scale, seed).end_day;
    Ok(match trace_out {
        Some(_) => Prepared {
            input_records: reference.records,
            input_bytes,
            describe: format!("{days}-day CDN trace on disk, levels /128 /64 /48"),
            reference: vec![reference],
            rule: Rule::Exact,
        },
        None => Prepared {
            input_records: reference.records * FUSED_INTENSITY,
            input_bytes: 0,
            describe: format!(
                "{days}-day CDN fleet generated in-process at intensity {FUSED_INTENSITY}, \
                 levels /128 /64 /48"
            ),
            reference: vec![reference],
            rule: Rule::Shape {
                volume: FUSED_INTENSITY,
            },
        },
    })
}

/// Where a session iteration reads its records from.
pub enum Input<'a> {
    /// An L6TR file (the `trace` workload).
    File(&'a Path),
    /// The fleet generator (the `fused` workload).
    Fleet(FleetConfig),
}

/// Runs one session over `input`: set-up is everything from the first
/// constructor to the end of the first step (the session builds its
/// detector lazily inside that step); wall time runs from the first step
/// to the final report.
pub fn iterate(input: &Input<'_>, rec: &mut Recorder) -> Result<Iteration, String> {
    let traced = rec.enabled();
    let registry = MetricsRegistry::global();
    let baseline = registry.snapshot();
    let t_setup = Instant::now();
    let root = rec.begin("bench.iteration", None);
    let (layer, src): (&str, Box<dyn Source>) = match input {
        Input::File(path) => {
            let span = rec.begin("trace.open", root);
            let src = FileStreamSource::open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .permissive(true);
            rec.end(span);
            ("trace", Box::new(src))
        }
        Input::Fleet(cfg) => {
            let span = rec.begin("scanners.world_build", root);
            let world = World::build(FleetConfig {
                intensity: FUSED_INTENSITY as f64,
                ..cfg.clone()
            });
            rec.end(span);
            ("scanners", Box::new(FleetSource::new(world)))
        }
    };
    let span = rec.begin("detect.session.new", root);
    let mut session = Session::new(
        builder(),
        Backend::Sharded(ShardPlan::default()),
        SessionConfig::default(),
    );
    rec.end(span);

    let t_ingest = Instant::now();
    // Untraced iterations hand the session the source itself; only traced
    // ones pay for the timing adapter.
    let (report, first_step_end, fills, layer_records) = if traced {
        let mut timed = TimedSource::new(src);
        let (report, first) = drive(&mut session, &mut timed, rec, root)?;
        (report, first, timed.fills, timed.records)
    } else {
        let mut src = src;
        let (report, first) = drive(&mut session, src.as_mut(), rec, root)?;
        (report, first, Vec::new(), 0)
    };
    let wall_s = t_ingest.elapsed().as_secs_f64();
    let setup_s = first_step_end.duration_since(t_setup).as_secs_f64();
    rec.adopt(&format!("{layer}.fill"), &fills, "detect.session.step");
    rec.end(root);

    let mut it = Iteration {
        traced,
        setup_s: vec![setup_s],
        wall_s,
        records: report.records,
        unit_done_s: vec![wall_s],
        outputs: vec![Output::from_reports(
            "session",
            &report.reports,
            report.records,
        )],
        ..Iteration::default()
    };
    if traced {
        let delta = registry.snapshot().delta(&baseline);
        detect_layer(&delta, &mut it.layer);
        it.layer
            .insert(format!("{layer}.records"), layer_records as f64);
        if let Input::File(path) = input {
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            it.layer.insert("trace.bytes".into(), bytes as f64);
        }
    }
    Ok(it)
}

/// Steps `session` over `src` to its final report, recording one span
/// per step. Returns the report and the end of the first step.
fn drive(
    session: &mut Session,
    src: &mut dyn Source,
    rec: &mut Recorder,
    root: Option<usize>,
) -> Result<(SessionReport, Instant), String> {
    let mut first_step_end = None;
    loop {
        let start = Instant::now();
        let step = session
            .step(src)
            .map_err(|e| format!("session step: {e}"))?;
        let end = Instant::now();
        rec.record("detect.session.step", start, end, root);
        first_step_end.get_or_insert(end);
        match step {
            Step::Ingested(_) | Step::Pending => {}
            Step::Finished(report) => return Ok((report, first_step_end.unwrap_or(end))),
            Step::Stopped { .. } => {
                return Err("session stopped without a checkpoint policy".into())
            }
        }
    }
}

/// Extra set-up-only repeats for the `trace` workload, whose set-up is a
/// millisecond: open the file, build the session, take the first step,
/// then drop it all.
pub fn setup_only(path: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let mut src = FileStreamSource::open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .permissive(true);
    let mut session = Session::new(
        builder(),
        Backend::Sharded(ShardPlan::default()),
        SessionConfig::default(),
    );
    session
        .step(&mut src)
        .map_err(|e| format!("session step: {e}"))?;
    let s = t.elapsed().as_secs_f64();
    drop(session);
    Ok(s)
}
