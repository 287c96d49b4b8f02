//! The collector's benchmark.
//!
//! ```text
//! perfbench --workload <isp-collect|i2-rounds|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--targets N] [--jobs N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! ones; `all` runs every workload both ways. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit). The exit code is nonzero when a
//! correctness or fidelity check failed. `--targets` and `--jobs` shrink
//! a run for the smoke tests.

mod common;
mod e2e;
mod speed;
mod sys;
mod traced;

use common::{Config, Outcome, Workload};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <isp-collect|i2-rounds|all> \
[--seed N] [--seconds S] [--trace 0|1] [--targets N] [--jobs N]";

struct Args {
    workloads: Vec<Workload>,
    traces: Vec<bool>,
    cfg: Config,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = None;
    let mut cfg = Config {
        workload: Workload::I2Rounds,
        seed: 2010,
        seconds: 10.0,
        targets: None,
        jobs: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |_| format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(())),
            },
            "--targets" => cfg.targets = Some(value.parse().map_err(|_| bad(()))?),
            "--jobs" => cfg.jobs = Some(value.parse().map_err(|_| bad(()))?),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workloads = match workload.as_deref() {
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => {
            vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?]
        }
        None => return Err(USAGE.to_string()),
    };
    let traces = match (trace, workloads.len()) {
        (Some(t), _) => vec![t],
        (None, 1) => vec![false],
        (None, _) => vec![false, true],
    };
    Ok(Args { workloads, traces, cfg })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut all = Outcome::default();
    for &workload in &args.workloads {
        for &trace in &args.traces {
            let cfg = Config { workload, ..args.cfg };
            let out = if trace { traced::run(&cfg) } else { e2e::run(&cfg) };
            let mode = if trace { "traced" } else { "untraced" };
            println!("# {} ({mode}, seed {})", workload.name(), cfg.seed);
            for (name, value, unit) in &out.metrics {
                println!("{name:<36} {value:>16.6} {unit}");
            }
            for e in &out.errors {
                println!("CHECK FAILED: {e}");
                eprintln!("{}: CHECK FAILED: {e}", workload.name());
            }
            all.attempted += out.attempted;
            all.failed += out.failed;
            all.errors.extend(out.errors.iter().map(|e| format!("{}: {e}", workload.name())));
            if args.workloads.len() == 1 && args.traces.len() == 1 {
                all.metrics = out.metrics;
            }
        }
    }
    println!("{}", all.json());
    if !all.correct() {
        std::process::exit(1);
    }
}
