//! Self-tests of the benchmark at tiny input sizes: every workload
//! completes, prints exactly the metrics `BENCHMARK.json` names with their
//! units, and a deliberately wrong reference makes the output checks fail.

use serde_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["trace", "fused", "serve", "paper"];

/// The (name, unit) pairs `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let mut out: Vec<(String, String)> = v
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (string(m, "name"), string(m, "unit")))
        .collect();
    out.sort();
    out
}

fn string(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

struct Outcome {
    code: i32,
    correct: bool,
    attempted: f64,
    failed: f64,
    /// (name, unit, value), sorted by name.
    metrics: Vec<(String, String, f64)>,
}

/// Runs the benchmark binary in a temporary directory at tiny scale.
fn bench(workload: &str, trace: bool, extra: &[&str]) -> Outcome {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{trace}-{}", extra.len()));
    std::fs::create_dir_all(&dir).expect("temporary dir");
    let out = Command::new(env!("CARGO_BIN_EXE_lumen6-perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let v: Value = serde_json::from_str(last).expect("last line is JSON");
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        panic!("metrics object missing: {last}");
    };
    let mut metrics: Vec<(String, String, f64)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                string(m, "unit"),
                number(m.get("value").expect("value")),
            )
        })
        .collect();
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    Outcome {
        code: out.status.code().unwrap_or(-1),
        correct: matches!(v.get("correct"), Some(Value::Bool(true))),
        attempted: number(v.get("attempted").expect("attempted")),
        failed: number(v.get("failed").expect("failed")),
        metrics,
    }
}

fn names(metrics: &[(String, String, f64)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for w in WORKLOADS {
        let o = bench(w, false, &[]);
        assert_eq!(o.code, 0, "{w}");
        assert!(o.correct, "{w}: outputs must match the reference");
        assert!(o.attempted >= 1.0, "{w}");
        assert_eq!(o.failed, 0.0, "{w}");
        assert_eq!(names(&o.metrics), expected, "{w}");
        for (name, _, value) in &o.metrics {
            assert!(value.is_finite() && *value > 0.0, "{w}: {name} = {value}");
        }
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let expected = declared("per_layer");
    // The layer each workload must exercise.
    let exercised = [
        ("trace", "trace.fill_s"),
        ("fused", "scanners.fill_s"),
        ("serve", "serve.run_s"),
        ("paper", "experiments.cdn_lab_s"),
    ];
    for (w, layer) in exercised {
        let o = bench(w, true, &[]);
        assert_eq!(o.code, 0, "{w}");
        assert!(o.correct, "{w}");
        assert_eq!(names(&o.metrics), expected, "{w}");
        let value = o.metrics.iter().find(|m| m.0 == layer).map_or(0.0, |m| m.2);
        assert!(value > 0.0, "{w}: {layer} = {value}");
    }
}

#[test]
fn wrong_reference_fails_the_checks() {
    for w in WORKLOADS {
        let o = bench(w, false, &["--wrong-reference"]);
        assert_eq!(o.code, 1, "{w}: a failed check exits 1");
        assert!(!o.correct, "{w}");
        assert!(o.failed > 0.0, "{w}: ops_failed_ratio must rise above 0");
        assert_eq!(o.failed, o.attempted, "{w}: every unit mismatches");
    }
}
