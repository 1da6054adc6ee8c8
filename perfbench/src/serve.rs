//! The `serve` workload: `Daemon::new` + `Daemon::run` over a fresh spool
//! of file-fed tenants with skewed sizes — every tenth tenant carries a
//! trace several times longer than the rest.

use crate::spans::Recorder;
use crate::util::{dir_bytes, remove_dir};
use crate::workload::{detect_layer, Iteration, Output, Prepared, Rule, Scale};
use lumen6_detect::{
    Backend, DetectorBuilder, Session, SessionConfig, SessionOutcome, SessionReport,
};
use lumen6_obs::{MetricsRegistry, MetricsSnapshot};
use lumen6_scanners::{FleetConfig, World};
use lumen6_serve::{Daemon, RunConfig, ServeConfig, TenantSpec};
use lumen6_trace::TraceWriter;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

/// One tenant: its name, fleet seed and simulated days.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Tenant name (also its spool subdirectory).
    pub name: String,
    /// Seed of the tenant's small-fleet world.
    pub seed: u64,
    /// Days the tenant's trace covers.
    pub days: u64,
}

/// Tenant count, every how many tenants one is long, and the short and
/// long trace lengths in days.
fn shape(scale: Scale) -> (usize, usize, u64, u64) {
    match scale {
        Scale::Full => (100, 10, 2, 45),
        Scale::Tiny => (5, 5, 2, 6),
    }
}

/// The tenant plan at `seed`: every `big_every`-th tenant carries the
/// long trace.
pub fn plan(scale: Scale, seed: u64) -> Vec<Tenant> {
    let (count, big_every, small_days, big_days) = shape(scale);
    (0..count)
        .map(|i| Tenant {
            name: format!("t{i:03}"),
            seed: seed.wrapping_mul(1_000).wrapping_add(i as u64 + 1),
            days: if i % big_every == big_every - 1 {
                big_days
            } else {
                small_days
            },
        })
        .collect()
}

/// Tenant input traces live here, apart from the spool.
fn input_path(work: &Path, t: &Tenant) -> PathBuf {
    work.join("inputs").join(format!("{}.l6tr", t.name))
}

/// A tenant's detection run, as it would appear in a serve manifest.
fn tenant_run(path: &Path) -> RunConfig {
    RunConfig {
        trace: Some(path.to_string_lossy().into_owned()),
        sequential: true,
        ..RunConfig::default()
    }
}

/// Writes one tenant's trace and computes its reference: a direct
/// sequential [`Session`] over the same file.
fn prepare_tenant(work: &Path, t: &Tenant) -> Result<(Output, u64), String> {
    let records = World::build(FleetConfig {
        seed: t.seed,
        end_day: t.days,
        ..FleetConfig::small()
    })
    .cdn_trace();
    let path = input_path(work, t);
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = TraceWriter::new(BufWriter::new(file)).map_err(|e| e.to_string())?;
    for r in &records {
        w.append(r).map_err(|e| e.to_string())?;
    }
    // Flushed to disk here so that write-back does not land in the timed
    // runs.
    w.finish()
        .map_err(|e| e.to_string())?
        .into_inner()
        .map_err(|e| e.to_string())?
        .sync_all()
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let run = tenant_run(&path);
    let session = Session::new(
        DetectorBuilder::new(run.detector_config()),
        Backend::Sequential,
        SessionConfig::default(),
    );
    match session.run(&path) {
        Ok(SessionOutcome::Finished(rep)) => Ok((
            Output::from_reports(&t.name, &rep.reports, rep.records),
            bytes,
        )),
        Ok(SessionOutcome::Stopped { .. }) => Err(format!("{}: reference stopped", t.name)),
        Err(e) => Err(format!("{}: reference session: {e}", t.name)),
    }
}

/// Generates every tenant's trace (two generator threads) and its
/// reference report.
pub fn prepare(scale: Scale, seed: u64, work: &Path) -> Result<Prepared, String> {
    let tenants = plan(scale, seed);
    std::fs::create_dir_all(work.join("inputs")).map_err(|e| e.to_string())?;
    let threads = 2;
    let mut results: Vec<Result<(Output, u64), String>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let tenants = &tenants;
                scope.spawn(move || {
                    tenants
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % threads == k)
                        .map(|(i, t)| (i, prepare_tenant(work, t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![(0, Err("generator panicked".into()))])
            })
            .collect();
        all.sort_by_key(|(i, _)| *i);
        results = all.into_iter().map(|(_, r)| r).collect();
    });
    let mut reference = Vec::with_capacity(tenants.len());
    let mut input_bytes = 0;
    for r in results {
        let (out, bytes) = r?;
        input_bytes += bytes;
        reference.push(out);
    }
    let input_records = reference.iter().map(|o| o.records).sum();
    let (count, big_every, small, big) = shape(scale);
    Ok(Prepared {
        reference,
        rule: Rule::Exact,
        input_records,
        input_bytes,
        describe: format!(
            "{count} file-fed small-fleet tenants ({small}-day, every {big_every}th {big}-day), /64"
        ),
    })
}

/// The daemon manifest over `spool`: sequential tenants, one worker per
/// core, default slice, checkpoint and publication cadence.
fn manifest(tenants: &[Tenant], work: &Path, spool: &Path, workers: usize) -> ServeConfig {
    ServeConfig {
        spool: spool.to_string_lossy().into_owned(),
        workers,
        tenants: tenants
            .iter()
            .map(|t| TenantSpec {
                name: t.name.clone(),
                run: tenant_run(&input_path(work, t)),
            })
            .collect(),
        ..ServeConfig::default()
    }
}

/// Set-up-only repeats per iteration (`Daemon::new` takes milliseconds).
const SETUP_REPEATS: usize = 8;

/// Lays out an empty spool: one directory per tenant, no checkpoints.
fn fresh_spool(tenants: &[Tenant], spool: &Path) -> Result<(), String> {
    remove_dir(spool)?;
    for t in tenants {
        std::fs::create_dir_all(spool.join(&t.name)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One daemon run over a fresh spool, plus set-up-only repeats. The
/// spool's tenant directories exist before `Daemon::new` is timed, so
/// set-up measures manifest validation, source opening and session
/// construction rather than directory creation on a busy disk.
pub fn iterate(
    tenants: &[Tenant],
    work: &Path,
    workers: usize,
    rec: &mut Recorder,
) -> Result<Iteration, String> {
    let traced = rec.enabled();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS + 1);
    let setup_spool = work.join("spool-setup");
    fresh_spool(tenants, &setup_spool)?;
    for _ in 0..SETUP_REPEATS {
        let cfg = manifest(tenants, work, &setup_spool, workers);
        let t = Instant::now();
        let daemon = Daemon::new(cfg).map_err(|e| format!("daemon new: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(daemon);
    }
    remove_dir(&setup_spool)?;

    let spool = work.join("spool");
    fresh_spool(tenants, &spool)?;
    let registry = MetricsRegistry::global();
    let baseline = registry.snapshot();
    let cfg = manifest(tenants, work, &spool, workers);
    let root = rec.begin("bench.iteration", None);
    let t = Instant::now();
    let span = rec.begin("serve.new", root);
    let daemon = Daemon::new(cfg).map_err(|e| format!("daemon new: {e}"))?;
    rec.end(span);
    setup_s.push(t.elapsed().as_secs_f64());
    let run_start = SystemTime::now();
    let t = Instant::now();
    let span = rec.begin("serve.run", root);
    let summary = daemon.run().map_err(|e| format!("daemon run: {e}"))?;
    rec.end(span);
    let wall_s = t.elapsed().as_secs_f64();
    rec.end(root);

    let mut it = Iteration {
        traced,
        setup_s,
        wall_s,
        ..Iteration::default()
    };
    let (mut slices, mut publishes, mut pending, mut ckpts, mut ckpt_bytes) = (0, 0, 0, 0, 0);
    for status in &summary.tenants {
        let dir = spool.join(&status.name);
        it.records += status.records;
        slices += status.slices;
        // The terminal publication writes status.json last; its mtime is
        // the tenant's completion time.
        let done = std::fs::metadata(dir.join("status.json"))
            .and_then(|m| m.modified())
            .map_err(|e| format!("{}: status.json: {e}", status.name))?;
        it.unit_done_s.push(
            done.duration_since(run_start)
                .map_or(0.0, |d| d.as_secs_f64()),
        );
        let report: SessionReport = read_json(&dir.join("report.json"))?;
        let mut out = Output::from_reports(&status.name, &report.reports, report.records);
        out.ok = status.state == "finished";
        it.outputs.push(out);
        ckpts += report.checkpoints_written;
        let metrics: MetricsSnapshot = read_json(&dir.join("metrics.json"))?;
        let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
        publishes += counter("serve.tenant.publishes");
        pending += counter("serve.tenant.pending_polls");
        ckpt_bytes += std::fs::read_dir(&dir)
            .map_err(|e| e.to_string())?
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("checkpoint"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum::<u64>();
    }
    if traced {
        let delta = registry.snapshot().delta(&baseline);
        detect_layer(&delta, &mut it.layer);
        let l = &mut it.layer;
        l.insert("serve.slices".into(), slices as f64);
        l.insert(
            "serve.records_per_slice".into(),
            it.records as f64 / slices.max(1) as f64,
        );
        l.insert("serve.publishes".into(), publishes as f64);
        l.insert("serve.pending_polls".into(), pending as f64);
        l.insert("serve.spool_bytes".into(), dir_bytes(&spool) as f64);
        l.insert("detect.checkpoint.count".into(), ckpts as f64);
        l.insert("detect.checkpoint.bytes".into(), ckpt_bytes as f64);
    }
    remove_dir(&spool)?;
    Ok(it)
}

fn read_json<T: serde::Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}
