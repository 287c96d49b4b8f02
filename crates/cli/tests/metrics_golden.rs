//! Pins the probe accounting of `--metrics` and `--metrics-json` on
//! internet2 seed 2010: the rendered table and the compact JSON object
//! of `trace --all`, `batch --jobs 1` (subnet cache on) and a faulty
//! `trace --all` must match the checked-in snapshots in `golden/`. A
//! deliberate change to the accounting regenerates them:
//!
//! ```text
//! tracenet generate internet2 --seed 2010 --out i2.json
//! tracenet trace i2.json --all --metrics p.json --metrics-json \
//!     crates/cli/tests/golden/metrics-internet2-2010-trace.json \
//!     | sed -n '/^phase  /,$p' > crates/cli/tests/golden/metrics-internet2-2010-trace.txt
//! ```
//!
//! and likewise for `batch i2.json --jobs 1` (`-batch`) and `trace
//! i2.json --all --fault-profile chaos --fault-budget 3` (`-chaos`).

use std::path::PathBuf;

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    tracenet_cli::run(&argv)
}

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-metrics-golden-{tag}-{}.json", std::process::id()));
    path
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Panics at the first line where `got` leaves `want`.
fn assert_same_lines(what: &str, want: &str, got: &str) {
    if want == got {
        return;
    }
    let (mut w, mut g) = (want.lines(), got.lines());
    for line in 1.. {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => panic!(
                "{what} drifted at line {line}:\n  golden: {}\n  actual: {}",
                a.unwrap_or("<end of snapshot>"),
                b.unwrap_or("<end of output>")
            ),
        }
    }
}

/// Runs `command` on the internet2 scenario with both metrics flags
/// and checks the table, the compact JSON and the pretty JSON against
/// the `case` snapshots.
fn check(scenario: &str, case: &str, command: &[&str]) {
    let pretty = temp_path(&format!("{case}-pretty"));
    let compact = temp_path(&format!("{case}-compact"));
    let mut args = vec![command[0], scenario];
    args.extend(&command[1..]);
    args.extend(["--metrics", pretty.to_str().unwrap()]);
    args.extend(["--metrics-json", compact.to_str().unwrap()]);
    let out = run(&args).unwrap_or_else(|e| panic!("{case}: {e}"));

    let table = out
        .find("phase          ")
        .map(|at| &out[at..])
        .unwrap_or_else(|| panic!("{case}: no metrics table in the output"));
    let name = format!("metrics-internet2-2010-{case}");
    assert_same_lines(&format!("{name}.txt"), &golden(&format!("{name}.txt")), table);

    let want_json = golden(&format!("{name}.json"));
    let got_json = std::fs::read_to_string(&compact).unwrap();
    let want: serde_json::Value = serde_json::from_str(&want_json).unwrap();
    let got: serde_json::Value = serde_json::from_str(&got_json).unwrap();
    for (key, value) in want.as_object().unwrap() {
        assert_eq!(&got[key.as_str()], value, "{name}.json: {key:?} drifted");
    }
    assert_eq!(got_json, want_json, "{name}.json: bytes drifted");
    let pretty_json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&pretty).unwrap()).unwrap();
    assert_eq!(pretty_json, got, "{case}: --metrics and --metrics-json disagree");
    std::fs::remove_file(pretty).ok();
    std::fs::remove_file(compact).ok();
}

#[test]
fn internet2_metrics_match_the_golden_snapshots() {
    let scenario = temp_path("internet2");
    let scenario_arg = scenario.to_str().unwrap();
    run(&["generate", "internet2", "--seed", "2010", "--out", scenario_arg])
        .expect("generate succeeds");
    check(scenario_arg, "trace", &["trace", "--all"]);
    check(scenario_arg, "batch", &["batch", "--jobs", "1"]);
    check(
        scenario_arg,
        "chaos",
        &["trace", "--all", "--fault-profile", "chaos", "--fault-budget", "3"],
    );
    std::fs::remove_file(scenario).ok();
}
