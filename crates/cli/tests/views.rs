//! `-v`, `-vv` and `--trace-log` are views of one recorder stream. Run
//! through the built binary, each must print exactly its part of the
//! probe and decision lines `record` writes for the same target:
//! `-v` the decisions, `-vv` the decisions and the probes, interleaved
//! as emitted, and the trace log the probe lines, byte for byte.

use std::process::Command;

const TARGET: &str = "10.33.0.5";

/// Runs the binary and returns its stderr lines.
fn tracenet(args: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_tracenet")).args(args).output().expect("spawn");
    assert!(out.status.success(), "tracenet {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stderr).unwrap().lines().map(str::to_string).collect()
}

fn lines(path: &str) -> Vec<String> {
    std::fs::read_to_string(path).unwrap().lines().map(str::to_string).collect()
}

#[test]
fn verbosity_and_trace_log_are_views_of_the_recorded_stream() {
    let dir = std::env::temp_dir().join(format!("tracenet-views-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (scenario, log, trace_log) = (path("i2.json"), path("record.jsonl"), path("trace.jsonl"));
    tracenet(&["generate", "internet2", "--seed", "2010", "--out", &scenario]);
    tracenet(&["record", &scenario, "--targets", TARGET, "--jobs", "1", "--out", &log]);

    // The recorded stream as the views print it: probe lines verbatim,
    // decisions as `session k hop d {decision}`, in emission order.
    let mut stream = Vec::new();
    for line in lines(&log).into_iter().skip(1) {
        let value: serde_json::Value = serde_json::from_str(&line).unwrap();
        match value["type"].as_str() {
            None => stream.push((false, line)),
            Some("decision") => {
                let d = obs::DecisionEvent::from_json(&value).unwrap();
                stream.push((true, format!("session {} hop {} {d}", d.session.unwrap(), d.hop)));
            }
            _ => {}
        }
    }
    let view = |decisions: bool, probes: bool| -> Vec<String> {
        let shown = |is_decision: bool| if is_decision { decisions } else { probes };
        stream.iter().filter(|(d, _)| shown(*d)).map(|(_, line)| line.clone()).collect()
    };
    let (decisions, probes) = (view(true, false), view(false, true));
    assert!(!decisions.is_empty() && !probes.is_empty());

    let batch = ["batch", &scenario, "--targets", TARGET, "--jobs", "1", "--no-cache"];
    assert_eq!(tracenet(&[&batch[..], &["-v"]].concat()), decisions);
    let verbose = tracenet(&[&batch[..], &["-vv", "--trace-log", &trace_log]].concat());
    assert_eq!(verbose.len(), decisions.len() + probes.len());
    assert_eq!(verbose, view(true, true));
    assert_eq!(lines(&trace_log), probes);
    for line in &probes {
        obs::ProbeEvent::from_json(&serde_json::from_str(line).unwrap()).unwrap();
    }
    std::fs::remove_dir_all(dir).ok();
}
