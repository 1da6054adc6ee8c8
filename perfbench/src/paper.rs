//! The `paper` workload: regenerate every table and figure as
//! `experiments all` does — the CDN lab, every CDN experiment, the MAWI
//! lab, every MAWI experiment — on the default configuration cut to its
//! first [`PAPER_DAYS`] days.

use crate::spans::Recorder;
use crate::workload::{Iteration, Output, Prepared, Rule, Scale};
use lumen6_experiments::{
    run_cdn, run_mawi, CdnLab, DetectMode, MawiLab, CDN_EXPERIMENTS, MAWI_EXPERIMENTS,
};
use lumen6_mawi::{MawiConfig, MawiWorld};
use lumen6_scanners::{FleetConfig, World};
use std::time::Instant;

/// Days both labs simulate at full scale: the first 120 of the paper's
/// 439, so that several regenerations fit in one run.
pub const PAPER_DAYS: u64 = 120;

/// The CDN and MAWI configurations at `seed`.
pub fn configs(scale: Scale, seed: u64) -> (FleetConfig, MawiConfig) {
    match scale {
        Scale::Full => (
            FleetConfig {
                seed,
                end_day: PAPER_DAYS,
                ..FleetConfig::default()
            },
            MawiConfig {
                seed,
                end_day: PAPER_DAYS,
                ..MawiConfig::default()
            },
        ),
        Scale::Tiny => (
            FleetConfig {
                seed,
                ..FleetConfig::small()
            },
            MawiConfig {
                seed,
                ..MawiConfig::small()
            },
        ),
    }
}

/// Everything one regeneration produced.
struct Run {
    outputs: Vec<Output>,
    unit_done_s: Vec<f64>,
    records: u64,
}

/// Regenerates the paper on `mode`, recording a span per lab and
/// experiment call.
fn regenerate(
    scale: Scale,
    seed: u64,
    mode: DetectMode,
    rec: &mut Recorder,
    root: Option<usize>,
) -> Result<Run, String> {
    let (cdn_cfg, mawi_cfg) = configs(scale, seed);
    let t0 = Instant::now();
    let mut outputs = Vec::new();
    let mut unit_done_s = Vec::new();
    let span = rec.begin("experiments.cdn_lab", root);
    let cdn = CdnLab::build_with(cdn_cfg, mode);
    rec.end(span);
    for name in CDN_EXPERIMENTS {
        let span = rec.begin(&format!("experiments.cdn.{name}"), root);
        let text = run_cdn(name, &cdn).ok_or_else(|| format!("unknown CDN experiment {name}"))?;
        rec.end(span);
        unit_done_s.push(t0.elapsed().as_secs_f64());
        outputs.push(Output::from_text(&format!("cdn.{name}"), &text));
    }
    let span = rec.begin("experiments.mawi_lab", root);
    let mawi = MawiLab::build_with(mawi_cfg, Some(&cdn.world), mode);
    rec.end(span);
    for name in MAWI_EXPERIMENTS {
        let span = rec.begin(&format!("experiments.mawi.{name}"), root);
        let text =
            run_mawi(name, &mawi).ok_or_else(|| format!("unknown MAWI experiment {name}"))?;
        rec.end(span);
        unit_done_s.push(t0.elapsed().as_secs_f64());
        outputs.push(Output::from_text(&format!("mawi.{name}"), &text));
    }
    Ok(Run {
        outputs,
        unit_done_s,
        records: (cdn.trace.len() + mawi.trace.len()) as u64,
    })
}

/// The reference: one regeneration on the single-threaded sequential
/// backend, computed once per invocation.
pub fn prepare(scale: Scale, seed: u64) -> Result<Prepared, String> {
    let mut off = Recorder::new(false);
    let run = regenerate(scale, seed, DetectMode::Sequential, &mut off, None)?;
    let days = configs(scale, seed).0.end_day;
    Ok(Prepared {
        input_records: run.records,
        input_bytes: 0,
        describe: format!(
            "{days}-day CDN and MAWI labs generated in-process, {} experiments",
            run.outputs.len()
        ),
        reference: run.outputs,
        rule: Rule::Exact,
    })
}

/// Set-up repeats per iteration: the two world constructors.
const SETUP_REPEATS: usize = 2;

/// One regeneration on the default sharded backend. Set-up is the world
/// constructors (`World::build`, `MawiWorld::build`) timed on their own,
/// since the labs run them internally.
pub fn iterate(scale: Scale, seed: u64, rec: &mut Recorder) -> Result<Iteration, String> {
    let traced = rec.enabled();
    let (cdn_cfg, mawi_cfg) = configs(scale, seed);
    let setup_s = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let world = World::build(cdn_cfg.clone());
            let mawi = MawiWorld::build(mawi_cfg.clone(), Some(&world.fleet));
            let s = t.elapsed().as_secs_f64();
            drop((world, mawi));
            s
        })
        .collect();
    let root = rec.begin("bench.iteration", None);
    let t = Instant::now();
    let run = regenerate(scale, seed, DetectMode::default(), rec, root)?;
    let wall_s = t.elapsed().as_secs_f64();
    rec.end(root);
    Ok(Iteration {
        traced,
        setup_s,
        wall_s,
        records: run.records,
        unit_done_s: run.unit_done_s,
        outputs: run.outputs,
        ..Iteration::default()
    })
}
