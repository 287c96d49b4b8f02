//! `trace --all --json` and `record --jobs 1` collect through the same
//! batch engine configuration (one job, subnet cache off), so they must
//! report the same sessions byte for byte. The ISP internet is the
//! sharp case: its per-flow load balancers branch on the echo ident, so
//! a collector with an ident scheme of its own follows different ECMP
//! paths and reports different hops.

use std::path::PathBuf;

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    tracenet_cli::run(&argv)
}

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-consistency-{tag}-{}.{ext}", std::process::id()));
    path
}

/// Generates `kind` at seed 2010, keeps the first `cap` targets, and
/// writes the result as a scenario file.
fn scenario_file(kind: &str, cap: usize) -> PathBuf {
    let json = run(&["generate", kind, "--seed", "2010"]).expect("generate succeeds");
    let mut scenario = topogen::io::from_json(&json).expect("valid scenario");
    scenario.targets.truncate(cap);
    let path = temp_path(kind, "json");
    std::fs::write(&path, topogen::io::to_json(&scenario)).expect("write scenario");
    path
}

fn assert_trace_equals_record(kind: &str, cap: usize) {
    let scenario = scenario_file(kind, cap);
    let scenario_arg = scenario.to_str().unwrap();
    let traced = run(&["trace", scenario_arg, "--all", "--json"]).expect("trace succeeds");
    let traced: serde_json::Value = serde_json::from_str(&traced).expect("trace prints JSON");
    let traced = traced.as_array().expect("one report per target");

    let log_path = temp_path(kind, "jsonl");
    run(&["record", scenario_arg, "--out", log_path.to_str().unwrap(), "--jobs", "1"])
        .expect("record succeeds");
    let log = obs::ExchangeLog::load(&log_path).expect("log loads");

    assert_eq!(traced.len(), log.header.targets.len(), "{kind}: session count");
    assert!(!traced.is_empty());
    for (k, report) in traced.iter().enumerate() {
        assert_eq!(
            Some(report),
            log.report_for(k as u64),
            "{kind}: session {k}: trace --all --json and record --jobs 1 disagree"
        );
    }
    std::fs::remove_file(scenario).ok();
    std::fs::remove_file(log_path).ok();
}

#[test]
fn trace_all_equals_record_on_the_isp_internet() {
    assert_trace_equals_record("isp", 5);
}

#[test]
fn trace_all_equals_record_on_internet2() {
    assert_trace_equals_record("internet2", usize::MAX);
}
