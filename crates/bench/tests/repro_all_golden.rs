//! Pins the paper reproduction: `repro_all 2010` must print exactly the
//! checked-in snapshot `golden/repro_all-2010.txt` (Tables 1–3, S1,
//! Figures 6–9, O1 and the A1 ablations). A deliberate change to any of
//! those numbers regenerates the snapshot and the docs quoting it
//! (EXPERIMENTS.md, README) in the same change:
//!
//! ```text
//! cargo run --release -p bench-suite --bin repro_all 2010 \
//!     > crates/bench/tests/golden/repro_all-2010.txt
//! ```

const GOLDEN: &str = include_str!("golden/repro_all-2010.txt");

#[test]
fn repro_all_2010_matches_the_golden_snapshot() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("2010")
        .output()
        .expect("repro_all runs");
    assert!(out.status.success(), "repro_all failed: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("repro_all prints UTF-8");
    if got == GOLDEN {
        return;
    }
    let (mut want_lines, mut got_lines) = (GOLDEN.lines(), got.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => panic!(
                "repro_all 2010 drifted from golden/repro_all-2010.txt at line {line}:\n  \
                 golden: {}\n  actual: {}",
                w.unwrap_or("<end of snapshot>"),
                g.unwrap_or("<end of output>")
            ),
        }
    }
}
