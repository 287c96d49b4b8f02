//! Pins the benchmark records of the paper binaries: `table2` and
//! `fig8` at seed 2010 (one job, subnet cache on) must write exactly the
//! checked-in `golden/BENCH_{table2,fig8}-2010.json`. Their per-phase
//! budgets are sums of the session reports' phase costs. A deliberate
//! change regenerates the snapshots:
//!
//! ```text
//! cargo run --release -p bench-suite --bin table2 \
//!     && cp BENCH_table2.json crates/bench/tests/golden/BENCH_table2-2010.json
//! ```
//!
//! and likewise for `fig8`.

fn check(exp: &str, bin: &str, golden: &str) {
    let dir =
        std::env::temp_dir().join(format!("tracenet-bench-golden-{exp}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = std::process::Command::new(bin)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("{exp} runs: {e}"));
    assert!(out.status.success(), "{exp} failed: {}", String::from_utf8_lossy(&out.stderr));
    let path = dir.join(format!("BENCH_{exp}.json"));
    let got = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    std::fs::remove_dir_all(&dir).ok();
    if got == golden {
        return;
    }
    let want: serde_json::Value = serde_json::from_str(golden).expect("golden parses");
    let got: serde_json::Value = serde_json::from_str(&got).expect("record parses");
    for (key, value) in want.as_object().expect("golden is an object") {
        assert_eq!(&got[key.as_str()], value, "BENCH_{exp}.json: {key:?} drifted");
    }
    panic!("BENCH_{exp}.json drifted from golden/BENCH_{exp}-2010.json:\n{got}");
}

#[test]
fn table2_bench_record_matches_the_golden_snapshot() {
    check("table2", env!("CARGO_BIN_EXE_table2"), include_str!("golden/BENCH_table2-2010.json"));
}

#[test]
fn fig8_bench_record_matches_the_golden_snapshot() {
    check("fig8", env!("CARGO_BIN_EXE_fig8"), include_str!("golden/BENCH_fig8-2010.json"));
}
