//! Workload names, input sizes, and the output/iteration records the
//! measuring process hands back to the checking process.

use crate::util::fnv1a64;
use lumen6_detect::{AggLevel, ScanReport};
use lumen6_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stream a paper-scale CDN trace from disk through a sharded session.
    Trace,
    /// Generate the fleet stream in-process straight into the detector.
    Fused,
    /// The multi-tenant daemon over a fresh spool of file-fed tenants.
    Serve,
    /// Regenerate every table and figure of the paper.
    Paper,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Trace,
        Workload::Fused,
        Workload::Serve,
        Workload::Paper,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Trace => "trace",
            Workload::Fused => "fused",
            Workload::Serve => "serve",
            Workload::Paper => "paper",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one checked unit of this workload is.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::Trace | Workload::Fused => "session",
            Workload::Serve => "tenant",
            Workload::Paper => "experiment",
        }
    }
}

/// Input size: the paper-scale defaults, or a tiny configuration for the
/// benchmark's own self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes documented in the README.
    Full,
    /// Seconds-long inputs for self-tests.
    Tiny,
}

impl Scale {
    /// Parses `full` or `tiny`.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// One unit's output, reduced to what its check compares.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Output {
    /// Unit name: `session`, a tenant name, or `cdn.<experiment>`.
    pub unit: String,
    /// Digest of the full output (per-level reports or experiment text).
    pub digest: u64,
    /// Per level: (prefix length, scans, sources).
    pub counts: Vec<(u8, u64, u64)>,
    /// Records the unit ingested.
    pub records: u64,
    /// The unit reached its terminal success state.
    pub ok: bool,
}

impl Output {
    /// Reduces per-level scan reports.
    pub fn from_reports(
        unit: &str,
        reports: &BTreeMap<AggLevel, ScanReport>,
        records: u64,
    ) -> Output {
        let json = serde_json::to_string(reports).unwrap_or_default();
        Output {
            unit: unit.to_string(),
            digest: fnv1a64(json.as_bytes()),
            counts: reports
                .iter()
                .map(|(l, r)| (l.len(), r.scans() as u64, r.sources() as u64))
                .collect(),
            records,
            ok: true,
        }
    }

    /// Reduces a rendered experiment.
    pub fn from_text(unit: &str, text: &str) -> Output {
        Output {
            unit: unit.to_string(),
            digest: fnv1a64(text.as_bytes()),
            ok: true,
            ..Output::default()
        }
    }
}

/// How an output is compared with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Digest, counts and record count all equal.
    Exact,
    /// Equal per-level scan and source counts, and `volume` times the
    /// reference's records: intensity scales volume, not shape.
    Shape {
        /// The intensity multiplier.
        volume: u64,
    },
}

impl Rule {
    /// Whether `out` passes against `reference`.
    pub fn passes(self, out: &Output, reference: &Output) -> bool {
        out.ok
            && out.counts == reference.counts
            && match self {
                Rule::Exact => out.digest == reference.digest && out.records == reference.records,
                Rule::Shape { volume } => out.records == reference.records * volume,
            }
    }
}

/// What one timed iteration measured.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Iteration {
    /// Spans were recorded.
    pub traced: bool,
    /// Set-up samples: this iteration's own plus any set-up-only repeats.
    pub setup_s: Vec<f64>,
    /// From the first ingest or lab call to the final report.
    pub wall_s: f64,
    /// Records ingested.
    pub records: u64,
    /// Each unit's completion, seconds after the timed call began.
    pub unit_done_s: Vec<f64>,
    /// Every unit's output.
    pub outputs: Vec<Output>,
    /// Per-layer values (traced iterations only).
    pub layer: BTreeMap<String, f64>,
    /// Peak resident memory of the process that ran the iteration, KiB.
    pub peak_rss_kib: u64,
}

/// The inputs a workload was given and the reference its outputs must
/// match, computed before and outside the timed runs.
pub struct Prepared {
    /// One reference output per unit.
    pub reference: Vec<Output>,
    /// How outputs are compared with the reference.
    pub rule: Rule,
    /// Records in the workload's input.
    pub input_records: u64,
    /// Bytes of the workload's input (trace files; 0 when generated
    /// in-process).
    pub input_bytes: u64,
    /// One-line description of the input.
    pub describe: String,
}

/// Reads the detect layer's own counters from a registry delta: batch
/// memo hits over batched records, router stalls over sub-batches sent,
/// and the last shard-imbalance window (max over mean routed, 1 =
/// balanced).
pub fn detect_layer(delta: &MetricsSnapshot, layer: &mut BTreeMap<String, f64>) {
    for name in [
        "detect.batch.records",
        "detect.batch.memo_hits",
        "detect.parallel.channel_full_stalls",
        "detect.parallel.batches_sent",
    ] {
        let v = delta.counters.get(name).copied().unwrap_or(0);
        layer.insert(name.to_string(), v as f64);
    }
    let imbalance = delta
        .gauges
        .get("detect.shard.imbalance")
        .copied()
        .unwrap_or(0);
    layer.insert("detect.shard.imbalance".into(), imbalance as f64 / 1000.0);
}
