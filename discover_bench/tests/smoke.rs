//! Tiny-size smoke of every workload: the benchmark binary runs end to end
//! with tracing off and on, prints exactly the metrics `BENCHMARK.json`
//! names, reports a correct result, and writes a trace that
//! `causalformer analyze --trace` reads.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn object(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(pairs) => pairs,
        other => panic!("expected an object, found {other:?}"),
    }
}

fn metric_names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: bool, dir: &Path) -> Value {
    let trace_out = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_discover-bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--size",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(dir.join("work"))
        .arg("--trace-out")
        .arg(&trace_out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn check_workload(workload: &str) {
    let spec = benchmark_json();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    let _ = std::fs::remove_dir_all(&dir);
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace, &dir);
        let keys: Vec<&str> = object(&result).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            result["correct"].as_bool(),
            Some(true),
            "{workload}: {result:?}"
        );
        assert_eq!(result["failed"].as_u64(), Some(0));
        assert!(result["attempted"].as_u64().unwrap() >= 1);
        let metrics = object(&result["metrics"]);
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(printed, metric_names(&spec, key), "{workload} {key}");
        for (name, m) in metrics {
            let v = m.get("value").and_then(Value::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{workload} {name}: {m:?}");
        }
    }
    // The traced run's spans are a Chrome trace `analyze` accepts as is.
    let analyzed = cf_cli::run_analyze(&cf_cli::AnalyzeArgs {
        trace: Some(dir.join("trace.json").to_string_lossy().into_owned()),
        ..Default::default()
    });
    let (report, violations) = analyzed.expect("analyze reads the trace");
    assert_eq!(violations, 0);
    assert!(report.contains("trainer.train"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lorenz_n20_smoke() {
    check_workload("lorenz-n20");
}

#[test]
fn sst_wide_smoke() {
    check_workload("sst-wide");
}

#[test]
fn store_oocore_smoke() {
    check_workload("store-oocore");
}

#[test]
fn unknown_workload_and_excess_threads_are_refused() {
    let bench = env!("CARGO_BIN_EXE_discover-bench");
    let out = Command::new(bench)
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let threads = (std::thread::available_parallelism().unwrap().get() + 1).to_string();
    let out = Command::new(bench)
        .args(["--workload", "sst-wide", "--threads", &threads])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("exceeds"));
}
