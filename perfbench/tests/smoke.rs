//! Smoke runs of every workload at a small size: each run must pass its
//! own checks, emit every metric `BENCHMARK.json` names with its unit,
//! and, at one worker, repeat its count metrics exactly.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

/// Metrics that are counts of work at one worker, so two runs of the
/// same code and seed must agree on them exactly.
const COUNTS: [&str; 8] = [
    "log_bytes_per_probe",
    "obs.lines_per_probe",
    "probe.sent_per_request",
    "sweep.allocs_per_probe",
    "sweep.cache_hit_pct",
    "sweep.cache_skip_pct",
    "sweep.cache_lookups",
    "netsim.walk_events_per_probe",
];

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec[section]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("a name").to_string();
            (name, m["unit"].as_str().expect("a unit").to_string())
        })
        .collect()
}

/// Runs one small smoke run and returns its result line.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "2010", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--targets", "12", "--jobs", "1"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn smoke(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let first = run(workload, trace);
        assert_eq!(first["correct"].as_bool(), Some(true), "{workload}: {first}");
        assert!(first["attempted"].as_u64().is_some_and(|n| n > 0));
        assert_eq!(first["failed"].as_u64(), Some(0));
        let metrics = first["metrics"].as_object().expect("a metrics object");
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        for (name, unit) in declared(section) {
            let m = &first["metrics"][name.as_str()];
            assert!(m["value"].as_f64().is_some(), "{workload} does not emit {name}: {names:?}");
            assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{workload}: unit of {name}");
        }
        assert_eq!(metrics.len(), declared(section).len(), "{workload} emits extra metrics");

        let second = run(workload, trace);
        let mut counts = COUNTS.to_vec();
        if workload == "i2-rounds" {
            counts.push("probes_per_subnet");
        }
        for name in counts {
            let (a, b) = (&first["metrics"][name]["value"], &second["metrics"][name]["value"]);
            if !a.is_null() {
                assert_eq!(a.as_f64(), b.as_f64(), "{workload}: {name} differs between runs");
            }
        }
    }
}

#[test]
fn isp_collect_smoke() {
    smoke("isp-collect");
}

#[test]
fn i2_rounds_smoke() {
    smoke("i2-rounds");
}
