//! The untraced run: the end-to-end metrics a user of the collector sees.
//!
//! A run sets up the scenarios its seed generates, then rotates over
//! them, one cycle of the workload's own operations per scenario, for as
//! many whole rotations as fit in `--seconds` (at least one). Every cycle
//! ends with `tracenet record` and `tracenet replay` of the workload's
//! collection, so that every metric exists on every workload:
//!
//! - `isp-collect`: two cold `batch` passes (load the scenario JSON,
//!   build the network, collect at two workers with the subnet cache);
//! - `i2-rounds`: rounds of collection over the warm set-up network, and
//!   one cold pass per cycle.
//!
//! `probes_per_s` counts probes per CPU second of collection, not per
//! wall second: at two workers the wall time is bimodal, depending on
//! whether the host runs both vCPUs at once, and CPU time is not.
//! `peak_rss_mb` is the RSS high-water mark of a cold pass, reset just
//! before it. Times are scaled to a reference machine speed
//! ([`crate::speed`]).

use std::time::Instant;

use netsim::Network;
use probe::SharedNetwork;
use sweep::{run_batch, BatchResult};
use topogen::Scenario;

use crate::common::{
    cli, file_len, fingerprint, grade, median, probes_in, setup, target_list, Config, Grade,
    Outcome, Prepared, Scratch, Workload,
};
use crate::speed::Speed;
use crate::sys::{peak_rss_mb, process_cpu, reset_peak_rss};

/// Cold passes per cycle of `isp-collect`.
const ISP_PASSES: usize = 2;

/// Warm rounds per cycle of `i2-rounds`.
const I2_ROUNDS: usize = 40;

/// Samples gathered over the timed cycles.
#[derive(Default)]
struct Samples {
    run_s: Vec<f64>,
    probes_per_s: Vec<f64>,
    probes_per_subnet: Vec<f64>,
    exact_pct: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    record_s: Vec<f64>,
    replay_s: Vec<f64>,
    log_bytes_per_probe: Vec<f64>,
    /// Per scenario, the first collection's fingerprint; every later
    /// collection of the Internet2 workload must match it.
    first: Vec<Option<u64>>,
    /// The first graded collection of the run's first scenario.
    first_grade: Option<Grade>,
}

/// One cold collection, as `tracenet batch` runs it: read and load the
/// scenario file, build the network, collect. Returns (pass wall
/// seconds, collection CPU seconds, the loaded scenario, result) and
/// samples the pass's peak RSS.
fn cold_pass(cfg: &Config, prep: &Prepared, s: &mut Samples) -> (f64, f64, Scenario, BatchResult) {
    reset_peak_rss();
    let t0 = Instant::now();
    let scenario = prep.load();
    let net = SharedNetwork::new(Network::new(scenario.topology.clone()));
    let cpu = process_cpu();
    let result = run_batch(
        &net,
        prep.vantage,
        &prep.targets,
        &cfg.batch(cfg.jobs()),
        &obs::Recorder::disabled(),
    );
    let pass_s = t0.elapsed().as_secs_f64();
    let collect_cpu_s = (process_cpu() - cpu).as_secs_f64();
    s.peak_rss_mb.push(peak_rss_mb());
    (pass_s, collect_cpu_s, scenario, result)
}

/// Grades a collection and checks it: no session may be aborted (those
/// count as failed), no collected address may be invented, and on the
/// deterministic Internet2 workload every collection must equal the
/// first one.
fn account(
    cfg: &Config,
    (i, scenario): (usize, &Scenario),
    result: &BatchResult,
    s: &mut Samples,
    out: &mut Outcome,
) {
    let g = grade(scenario, &result.reports);
    out.attempted += g.sessions as u64;
    out.failed += g.aborted as u64;
    out.check(g.phantom_addrs == 0, || {
        format!("{} collected addresses are no interface of the topology", g.phantom_addrs)
    });
    s.probes_per_subnet.push(g.probes_per_subnet());
    s.exact_pct.push(g.exact_pct);
    if i == 0 {
        s.first_grade.get_or_insert(g);
    }
    if cfg.workload != Workload::IspCollect {
        let print = fingerprint(&result.reports);
        let first = *s.first[i].get_or_insert(print);
        out.check(first == print, || "a collection differs from the first one".into());
    }
}

/// `tracenet record` of the workload's collection, then `tracenet
/// replay` of the log, which fails unless every session replays
/// byte-identically and consumes every recorded probe.
fn record_replay(
    cfg: &Config,
    prep: &Prepared,
    scratch: &Scratch,
    s: &mut Samples,
    out: &mut Outcome,
) {
    let log = scratch.file("exchange.jsonl");
    let (scenario, log_s) = (prep.path.to_string_lossy(), log.to_string_lossy());
    let (jobs, targets) = (cfg.jobs().to_string(), target_list(&prep.targets));
    let sessions = prep.targets.len() as u64;
    let t0 = Instant::now();
    let recorded =
        cli(&["record", &scenario, "--out", &log_s, "--jobs", &jobs, "--targets", &targets]);
    let record_s = t0.elapsed().as_secs_f64();
    out.attempted += 2 * sessions;
    let probes = match recorded.as_deref().map(probes_in) {
        Ok(Some(p)) if p > 0 => p,
        other => {
            out.failed += 2 * sessions;
            out.check(false, || format!("record failed: {other:?}"));
            return;
        }
    };
    let bytes = file_len(&log);
    let t1 = Instant::now();
    let replayed = cli(&["replay", &log_s]);
    let replay_s = t1.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&log);
    match replayed {
        Ok(summary) => out.check(probes_in(&summary) == Some(probes), || {
            format!("replay re-asked other than the {probes} recorded probes: {summary}")
        }),
        Err(e) => {
            // `replay` lists one "session N ..." line per diverged
            // session; any other error leaves no session replayed.
            let diverged = e.lines().filter(|l| l.trim_start().starts_with("session ")).count();
            out.failed += if diverged == 0 { sessions } else { diverged as u64 };
            out.check(false, || format!("replay failed: {e}"));
        }
    }
    s.record_s.push(record_s);
    s.replay_s.push(replay_s);
    s.log_bytes_per_probe.push(bytes as f64 / probes as f64);
}

/// One cycle of the workload's own operations on scenario `i` (before
/// record/replay).
fn cycle(cfg: &Config, (i, prep): (usize, &Prepared), s: &mut Samples, out: &mut Outcome) {
    match cfg.workload {
        Workload::IspCollect => {
            for _ in 0..ISP_PASSES {
                let (pass_s, collect_cpu_s, scenario, result) = cold_pass(cfg, prep, s);
                s.run_s.push(pass_s);
                s.probes_per_s.push(result.probes as f64 / collect_cpu_s);
                account(cfg, (i, &scenario), &result, s, out);
            }
        }
        Workload::I2Rounds => {
            let (scenario, net) = prep.warm.as_ref().expect("the Internet2 network is kept warm");
            for _ in 0..I2_ROUNDS {
                let cpu = process_cpu();
                let result = run_batch(
                    net,
                    prep.vantage,
                    &prep.targets,
                    &cfg.batch(cfg.jobs()),
                    &obs::Recorder::disabled(),
                );
                s.probes_per_s.push(result.probes as f64 / (process_cpu() - cpu).as_secs_f64());
                account(cfg, (i, scenario), &result, s, out);
            }
            let (pass_s, _, scenario, result) = cold_pass(cfg, prep, s);
            s.run_s.push(pass_s);
            account(cfg, (i, &scenario), &result, s, out);
        }
    }
}

/// The untraced run of `cfg.workload`.
pub fn run(cfg: &Config) -> Outcome {
    let scratch = Scratch::new();
    let mut out = Outcome::default();
    let set_up = setup(cfg, &scratch);
    let preps = &set_up.preps;
    let mut speed = Speed::default();
    let mut s = Samples { first: vec![None; preps.len()], ..Samples::default() };
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        for scenario in preps.iter().enumerate() {
            speed.sample();
            cycle(cfg, scenario, &mut s, &mut out);
            speed.sample();
            record_replay(cfg, scenario.1, &scratch, &mut s, &mut out);
        }
        if start.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64() > cfg.seconds {
            break;
        }
    }
    pin_paper_setting(cfg, &s, &mut out);

    out.scales = speed.scales();
    println!("{}", speed.describe());
    let setup_s: Vec<f64> = set_up.times.iter().map(|t| t.total).collect();
    out.metric("setup_s", median(&setup_s) * set_up.scales.data, "s");
    out.time("run_s", median(&s.run_s), "s");
    // Warm rounds are the per-probe path alone; the batch of a cold pass
    // slows with the bulk stages around it (see `crate::speed`).
    match cfg.workload {
        Workload::IspCollect => out.rate("probes_per_s", median(&s.probes_per_s), "1/s"),
        Workload::I2Rounds => out.probe_rate("probes_per_s", median(&s.probes_per_s), "1/s"),
    }
    out.metric("probes_per_subnet", median(&s.probes_per_subnet), "count");
    out.metric("exact_subnet_pct", median(&s.exact_pct), "%");
    let completed = out.attempted - out.failed.min(out.attempted);
    out.metric("completed_pct", 100.0 * completed as f64 / out.attempted.max(1) as f64, "%");
    out.metric("peak_rss_mb", median(&s.peak_rss_mb), "MB");
    out.time("record_s", median(&s.record_s), "s");
    out.time("replay_s", median(&s.replay_s), "s");
    out.metric("log_bytes_per_probe", median(&s.log_bytes_per_probe), "B");
    out
}

/// The paper's Internet2 collection (seed 2010, all 179 targets) spends
/// 11,402 probes and infers 73.2 % of the subnets exactly.
fn pin_paper_setting(cfg: &Config, s: &Samples, out: &mut Outcome) {
    if cfg.workload == Workload::IspCollect || cfg.seed != 2010 || cfg.targets.is_some() {
        return;
    }
    let Some(g) = s.first_grade else { return };
    out.check(g.probes == 11_402, || {
        format!("Internet2 seed 2010 spent {} probes, not 11402", g.probes)
    });
    out.check((g.exact_pct * 10.0).round() == 732.0, || {
        format!("Internet2 seed 2010 inferred {:.1} % exactly, not 73.2 %", g.exact_pct)
    });
}
