//! Run and daemon configuration.
//!
//! [`RunConfig`] consolidates every knob of a single detection run — the
//! ~20 `lumen6 detect` command-line flags — into one serde struct, loadable
//! from a TOML file (`lumen6 detect --config FILE`, flags override) and
//! reused verbatim as the per-tenant configuration of `lumen6 serve`.
//!
//! [`ServeConfig`] is the daemon manifest: scheduler shape plus a named
//! [`RunConfig`] per tenant:
//!
//! ```toml
//! spool = "spool"
//! workers = 2
//!
//! [tenants.cdn-live]
//! tail = "ingest/cdn.l6tr"
//! min_dsts = 100
//! watermark_secs = 5
//!
//! [tenants.replay]
//! trace = "archive/week12.l6tr"
//! ```
//!
//! Both structs derive `Serialize`, which places their schemas under the
//! L004 fingerprint: renaming or re-typing a field without blessing the
//! analyzer snapshot is a build failure, exactly like checkpoint drift.
//! `Deserialize` is written by hand so every field is optional with the
//! CLI's defaults, and unknown keys are rejected with the offending name
//! (a typo'd tenant knob must not silently fall back to a default).

use crate::toml;
use lumen6_detect::{
    Backend, CheckpointPolicy, DetectorBuilder, ScanDetectorConfig, Session, SessionConfig,
    SketchConfig,
};
use lumen6_scanners::{FleetConfig, FleetSource, ParallelFleetSource, World};
use lumen6_trace::{CodecError, FileStreamSource, Source, TailSource};
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Complete configuration of one detection run. Field names match the
/// `lumen6 detect` flags with `-` → `_`; paths are strings so the struct
/// round-trips through the vendored serde (which has no `PathBuf` impl).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunConfig {
    /// Ingest: an L6TR trace file read to EOF.
    pub trace: Option<String>,
    /// Ingest: a growing L6TR file followed live ([`TailSource`]); ends
    /// when the `<path>.eof` marker appears.
    pub tail: Option<String>,
    /// Ingest: synthesize the CDN fleet stream in-process (no file).
    pub fused: bool,
    /// Source aggregation prefix length (128/64/48/32).
    pub agg: u8,
    /// Minimum distinct destinations for a run to qualify as a scan.
    pub min_dsts: u64,
    /// Maximum intra-scan packet gap, seconds.
    pub timeout_secs: u64,
    /// HyperLogLog precision for spill-to-sketch counting; `None` = exact.
    pub sketch_precision: Option<u8>,
    /// Shard count for the parallel backend; 0 = one per hardware thread.
    pub threads: usize,
    /// Use the single-threaded reference backend.
    pub sequential: bool,
    /// Reorder-buffer watermark, seconds; 0 = sorted input.
    pub watermark_secs: u64,
    /// Records staged per columnar detector batch.
    pub batch: usize,
    /// Abort on recoverable decode errors instead of quarantine-and-skip.
    pub strict: bool,
    /// Checkpoint file; `None` disables durability (the daemon assigns a
    /// spool path instead).
    pub checkpoint: Option<String>,
    /// Checkpoint every this many records.
    pub checkpoint_every: u64,
    /// Stop (exit-3 style) after N checkpoints — a resume-test knob,
    /// rejected for daemon tenants.
    pub stop_after: Option<u64>,
    /// Close idle detector runs whenever stream time advances this far,
    /// seconds; 0 disables.
    pub flush_idle_secs: u64,
    /// Fused generation: days to simulate (`None` = generator default).
    pub days: Option<u64>,
    /// Fused generation: master seed.
    pub seed: u64,
    /// Fused generation: the small calibration fleet.
    pub small: bool,
    /// Fused generation: packet-volume multiplier.
    pub intensity: f64,
    /// Fused generation: generator threads. 1 = the single-threaded
    /// [`FleetSource`]; N > 1 = [`ParallelFleetSource`] with N workers;
    /// 0 = one worker per hardware thread. Output is byte-identical for
    /// every value.
    pub gen_threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            trace: None,
            tail: None,
            fused: false,
            agg: 64,
            min_dsts: 100,
            timeout_secs: 3_600,
            sketch_precision: None,
            threads: 0,
            sequential: false,
            watermark_secs: 0,
            batch: lumen6_detect::DEFAULT_SESSION_BATCH,
            strict: false,
            checkpoint: None,
            checkpoint_every: 100_000,
            stop_after: None,
            flush_idle_secs: 0,
            days: None,
            seed: 42,
            small: false,
            intensity: 1.0,
            gen_threads: 1,
        }
    }
}

impl Deserialize for RunConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Value::Object(fields) = v else {
            return Err(DeError::expected("RunConfig table", v));
        };
        let mut cfg = RunConfig::default();
        for (key, val) in fields {
            // Serialized `None` options come back as nulls: not set.
            if matches!(val, Value::Null) {
                continue;
            }
            match key.as_str() {
                "trace" => cfg.trace = Some(String::from_value(val)?),
                "tail" => cfg.tail = Some(String::from_value(val)?),
                "fused" => cfg.fused = bool::from_value(val)?,
                "agg" => cfg.agg = u8::from_value(val)?,
                "min_dsts" => cfg.min_dsts = u64::from_value(val)?,
                "timeout_secs" => cfg.timeout_secs = u64::from_value(val)?,
                "sketch_precision" => cfg.sketch_precision = Some(u8::from_value(val)?),
                "threads" => cfg.threads = usize::from_value(val)?,
                "sequential" => cfg.sequential = bool::from_value(val)?,
                "watermark_secs" => cfg.watermark_secs = u64::from_value(val)?,
                "batch" => cfg.batch = usize::from_value(val)?,
                "strict" => cfg.strict = bool::from_value(val)?,
                "checkpoint" => cfg.checkpoint = Some(String::from_value(val)?),
                "checkpoint_every" => cfg.checkpoint_every = u64::from_value(val)?,
                "stop_after" => cfg.stop_after = Some(u64::from_value(val)?),
                "flush_idle_secs" => cfg.flush_idle_secs = u64::from_value(val)?,
                "days" => cfg.days = Some(u64::from_value(val)?),
                "seed" => cfg.seed = u64::from_value(val)?,
                "small" => cfg.small = bool::from_value(val)?,
                "intensity" => cfg.intensity = f64::from_value(val)?,
                "gen_threads" => cfg.gen_threads = usize::from_value(val)?,
                other => {
                    return Err(DeError::msg(format!("unknown RunConfig key {other:?}")));
                }
            }
        }
        Ok(cfg)
    }
}

impl RunConfig {
    /// Parses a flat TOML file (the `detect --config FILE` format).
    pub fn from_toml_str(text: &str) -> Result<RunConfig, String> {
        let value = toml::parse(text)?;
        RunConfig::from_value(&value).map_err(|e| e.to_string())
    }

    /// Checks cross-field consistency: exactly one ingest source, positive
    /// finite intensity, `stop_after` only with a checkpoint path.
    pub fn validate(&self) -> Result<(), String> {
        let sources = usize::from(self.trace.is_some())
            + usize::from(self.tail.is_some())
            + usize::from(self.fused);
        if sources == 0 {
            return Err("no ingest source: set one of trace, tail, or fused".into());
        }
        if sources > 1 {
            return Err("ambiguous ingest: trace, tail, and fused are mutually exclusive".into());
        }
        if !self.intensity.is_finite() || self.intensity <= 0.0 {
            return Err(format!(
                "intensity must be a positive finite number, got {}",
                self.intensity
            ));
        }
        if self.stop_after.is_some() && self.checkpoint.is_none() {
            return Err("stop_after needs a checkpoint path".into());
        }
        if self.gen_threads != 1 && !self.fused {
            return Err("gen_threads applies only to fused generation".into());
        }
        Ok(())
    }

    /// The detector-layer configuration.
    pub fn detector_config(&self) -> ScanDetectorConfig {
        ScanDetectorConfig {
            agg: lumen6_detect::AggLevel::new(self.agg),
            min_dsts: self.min_dsts,
            timeout_ms: self.timeout_secs * 1000,
            sketch: self.sketch_precision.map(|precision| SketchConfig {
                spill_threshold: 4_096,
                precision,
            }),
            ..Default::default()
        }
    }

    /// The dispatch backend, resolved by [`Backend::from_flags`]:
    /// `sequential` wins, then an explicit shard count (`threads = 0` means
    /// one shard per hardware thread).
    pub fn backend(&self) -> Backend {
        Backend::from_flags(Some(self.threads), self.sequential)
    }

    /// The session-layer configuration.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig {
            watermark_ms: self.watermark_secs * 1000,
            checkpoint: self.checkpoint.as_ref().map(|path| CheckpointPolicy {
                path: path.into(),
                every_records: self.checkpoint_every,
                stop_after: self.stop_after,
            }),
            flush_idle_every_ms: self.flush_idle_secs * 1000,
            strict: self.strict,
            batch: self.batch,
        }
    }

    /// The fused-generation fleet configuration.
    pub fn fleet_config(&self) -> FleetConfig {
        let mut cfg = if self.small {
            FleetConfig::small()
        } else {
            FleetConfig::default()
        };
        cfg.seed = self.seed;
        cfg.end_day = self.days.unwrap_or(cfg.end_day);
        cfg.intensity = self.intensity;
        cfg
    }

    /// Opens the configured ingest source.
    pub fn make_source(&self) -> Result<Box<dyn Source>, CodecError> {
        let permissive = !self.strict;
        if let Some(path) = &self.trace {
            return Ok(Box::new(
                FileStreamSource::open(Path::new(path))?.permissive(permissive),
            ));
        }
        if let Some(path) = &self.tail {
            return Ok(Box::new(
                TailSource::open(Path::new(path)).permissive(permissive),
            ));
        }
        let world = World::build(self.fleet_config());
        match self.gen_threads {
            1 => Ok(Box::new(FleetSource::new(world))),
            0 => {
                // Auto: one generator per hardware thread. Purely a
                // throughput knob — the output is thread-count-invariant.
                let n = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
                Ok(Box::new(ParallelFleetSource::new(world, n)))
            }
            n => Ok(Box::new(ParallelFleetSource::new(world, n))),
        }
    }

    /// Builds the full [`Session`] this configuration describes.
    pub fn make_session(&self) -> Session {
        Session::new(
            DetectorBuilder::new(self.detector_config()),
            self.backend(),
            self.session_config(),
        )
    }
}

/// One daemon tenant: a unique name (also its spool subdirectory) plus the
/// run it hosts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantSpec {
    /// Tenant name; restricted to `[A-Za-z0-9._-]` so it is usable as a
    /// directory name.
    pub name: String,
    /// The tenant's detection run.
    pub run: RunConfig,
}

/// The `lumen6 serve` manifest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeConfig {
    /// Spool directory: per-tenant checkpoints, reports, metrics, status.
    pub spool: String,
    /// Worker threads multiplexing the tenants.
    pub workers: usize,
    /// Session steps a worker runs per scheduling slice before requeueing
    /// the tenant.
    pub steps_per_slice: u32,
    /// Publish each tenant's report/metrics/status every this many slices.
    pub publish_every_slices: u64,
    /// Graceful-shutdown trigger file; `None` = `<spool>/shutdown`.
    pub stop_file: Option<String>,
    /// The hosted tenants, in manifest order.
    pub tenants: Vec<TenantSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            spool: "spool".into(),
            workers: 2,
            steps_per_slice: 8,
            publish_every_slices: 16,
            stop_file: None,
            tenants: Vec::new(),
        }
    }
}

impl Deserialize for ServeConfig {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Value::Object(fields) = v else {
            return Err(DeError::expected("ServeConfig table", v));
        };
        let mut cfg = ServeConfig::default();
        for (key, val) in fields {
            if matches!(val, Value::Null) {
                continue;
            }
            match key.as_str() {
                "spool" => cfg.spool = String::from_value(val)?,
                "workers" => cfg.workers = usize::from_value(val)?,
                "steps_per_slice" => cfg.steps_per_slice = u32::from_value(val)?,
                "publish_every_slices" => cfg.publish_every_slices = u64::from_value(val)?,
                "stop_file" => cfg.stop_file = Some(String::from_value(val)?),
                "tenants" => {
                    let Value::Object(tenants) = val else {
                        return Err(DeError::expected("tenants table", val));
                    };
                    for (name, spec) in tenants {
                        cfg.tenants.push(TenantSpec {
                            name: name.clone(),
                            run: RunConfig::from_value(spec)?,
                        });
                    }
                }
                other => {
                    return Err(DeError::msg(format!("unknown ServeConfig key {other:?}")));
                }
            }
        }
        Ok(cfg)
    }
}

impl ServeConfig {
    /// Parses a daemon manifest (`[tenants.<name>]` sections).
    pub fn from_toml_str(text: &str) -> Result<ServeConfig, String> {
        let value = toml::parse(text)?;
        ServeConfig::from_value(&value).map_err(|e| e.to_string())
    }

    /// Validates the manifest: at least one tenant, unique directory-safe
    /// names, per-tenant run validity, no `stop_after` resume-test knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("no tenants configured".into());
        }
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.steps_per_slice == 0 {
            return Err("steps_per_slice must be at least 1".into());
        }
        let mut seen = std::collections::BTreeSet::new();
        for t in &self.tenants {
            if t.name.is_empty()
                || !t
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
            {
                return Err(format!(
                    "tenant name {:?} must be non-empty [A-Za-z0-9._-]",
                    t.name
                ));
            }
            if !seen.insert(&t.name) {
                return Err(format!("duplicate tenant name {:?}", t.name));
            }
            t.run
                .validate()
                .map_err(|e| format!("tenant {:?}: {e}", t.name))?;
            if t.run.stop_after.is_some() {
                return Err(format!(
                    "tenant {:?}: stop_after is a resume-test knob, not valid under serve",
                    t.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen6_detect::ShardPlan;

    #[test]
    fn run_config_defaults_match_cli_defaults() {
        let cfg = RunConfig::from_toml_str("trace = \"t.l6tr\"\n").unwrap();
        assert_eq!(cfg.agg, 64);
        assert_eq!(cfg.min_dsts, 100);
        assert_eq!(cfg.timeout_secs, 3_600);
        assert_eq!(cfg.batch, lumen6_detect::DEFAULT_SESSION_BATCH);
        assert_eq!(cfg.checkpoint_every, 100_000);
        assert_eq!(cfg.seed, 42);
        assert!((cfg.intensity - 1.0).abs() < f64::EPSILON);
        assert!(cfg.validate().is_ok());
        let det = cfg.detector_config();
        assert_eq!(det, ScanDetectorConfig::default());
        assert!(matches!(cfg.backend(), Backend::Sharded(_)));
    }

    #[test]
    fn unknown_key_is_rejected_with_its_name() {
        let err = RunConfig::from_toml_str("trace = \"t\"\nmin_dst = 5\n").unwrap_err();
        assert!(err.contains("min_dst"), "{err}");
    }

    #[test]
    fn source_exclusivity_is_validated() {
        let none = RunConfig::default();
        assert!(none.validate().unwrap_err().contains("no ingest source"));
        let both = RunConfig {
            trace: Some("a".into()),
            fused: true,
            ..Default::default()
        };
        assert!(both.validate().unwrap_err().contains("mutually exclusive"));
    }

    #[test]
    fn backend_resolution_order() {
        let seq = RunConfig {
            sequential: true,
            threads: 4,
            ..Default::default()
        };
        assert_eq!(seq.backend(), Backend::Sequential);
        let pinned = RunConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(
            pinned.backend(),
            Backend::Sharded(ShardPlan::with_shards(3))
        );
    }

    #[test]
    fn session_config_maps_units_and_policy() {
        let cfg = RunConfig {
            trace: Some("t".into()),
            watermark_secs: 5,
            checkpoint: Some("/tmp/x.l6ck".into()),
            checkpoint_every: 7,
            flush_idle_secs: 2,
            strict: true,
            batch: 9,
            ..Default::default()
        };
        let s = cfg.session_config();
        assert_eq!(s.watermark_ms, 5_000);
        assert_eq!(s.flush_idle_every_ms, 2_000);
        assert!(s.strict);
        assert_eq!(s.batch, 9);
        let p = s.checkpoint.unwrap();
        assert_eq!(p.path, std::path::PathBuf::from("/tmp/x.l6ck"));
        assert_eq!(p.every_records, 7);
        assert_eq!(p.stop_after, None);
    }

    #[test]
    fn serve_manifest_parses_tenant_sections_in_order() {
        let cfg = ServeConfig::from_toml_str(
            "spool = \"run/spool\"\n\
             workers = 3\n\
             [tenants.alpha]\n\
             trace = \"a.l6tr\"\n\
             min_dsts = 50\n\
             [tenants.beta]\n\
             fused = true\n\
             small = true\n\
             days = 4\n",
        )
        .unwrap();
        assert_eq!(cfg.spool, "run/spool");
        assert_eq!(cfg.workers, 3);
        let names: Vec<&str> = cfg.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        assert_eq!(cfg.tenants[0].run.min_dsts, 50);
        assert_eq!(cfg.tenants[1].run.days, Some(4));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn serve_validation_rejects_bad_manifests() {
        let empty = ServeConfig::default();
        assert!(empty.validate().unwrap_err().contains("no tenants"));

        let mut dup = ServeConfig::default();
        let run = RunConfig {
            fused: true,
            ..Default::default()
        };
        dup.tenants.push(TenantSpec {
            name: "a".into(),
            run: run.clone(),
        });
        dup.tenants.push(TenantSpec {
            name: "a".into(),
            run: run.clone(),
        });
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut bad_name = ServeConfig::default();
        bad_name.tenants.push(TenantSpec {
            name: "a/b".into(),
            run: run.clone(),
        });
        assert!(bad_name.validate().unwrap_err().contains("a/b"));

        let mut stopper = ServeConfig::default();
        stopper.tenants.push(TenantSpec {
            name: "s".into(),
            run: RunConfig {
                checkpoint: Some("c".into()),
                stop_after: Some(1),
                ..run
            },
        });
        assert!(stopper.validate().unwrap_err().contains("stop_after"));
    }

    #[test]
    fn gen_threads_parses_and_is_fused_only() {
        let cfg = RunConfig::from_toml_str("fused = true\ngen_threads = 4\n").unwrap();
        assert_eq!(cfg.gen_threads, 4);
        assert!(cfg.validate().is_ok());
        let auto = RunConfig::from_toml_str("fused = true\ngen_threads = 0\n").unwrap();
        assert!(auto.validate().is_ok());
        let bad = RunConfig::from_toml_str("trace = \"t\"\ngen_threads = 4\n").unwrap();
        assert!(bad.validate().unwrap_err().contains("gen_threads"));
    }

    #[test]
    fn run_config_round_trips_through_serialize() {
        let cfg = RunConfig {
            tail: Some("x.l6tr".into()),
            sketch_precision: Some(12),
            days: Some(9),
            stop_after: Some(2),
            checkpoint: Some("c.l6ck".into()),
            ..Default::default()
        };
        let back = RunConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back, cfg);
    }
}
