//! What every workload shares: its definition, set-up, grading, the
//! scratch directory and the result line.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

use evalkit::{classify, CollectedSet, MatchClass};
use inet::Addr;
use netsim::Network;
use probe::{Protocol, SharedNetwork};
use sweep::{run_batch, BatchConfig};
use topogen::Scenario;
use tracenet::TraceReport;

use crate::speed::{Scales, Speed};

/// The benchmark's workloads. Why each was chosen is recorded in
/// `BENCHMARK.json` and `perfbench/README.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `tracenet batch` on the 4-ISP internet: every pass is a cold run
    /// on a fresh network, two workers sharing the subnet cache.
    IspCollect,
    /// Internet2 collected round after round over one warm network, one
    /// worker, no cache.
    I2Rounds,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::IspCollect, Workload::I2Rounds];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IspCollect => "isp-collect",
            Workload::I2Rounds => "i2-rounds",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn generate(self, seed: u64) -> Scenario {
        match self {
            Workload::IspCollect => topogen::isp_internet(seed),
            Workload::I2Rounds => topogen::internet2(seed),
        }
    }

    /// Worker threads of the workload's collection.
    pub fn jobs(self) -> usize {
        match self {
            Workload::IspCollect => 2,
            Workload::I2Rounds => 1,
        }
    }

    /// Whether the collection shares a cross-session subnet cache
    /// (`tracenet record` always runs without one).
    fn use_cache(self) -> bool {
        self == Workload::IspCollect
    }

    /// The Internet2 workload reuses its set-up network, so set-up ends
    /// with one untimed warm-up round; the ISP workload probes a fresh
    /// network every pass, because rate-limit state carries over.
    fn warms_up(self) -> bool {
        self != Workload::IspCollect
    }

    /// Set-ups per scenario: an Internet2 set-up takes a few
    /// milliseconds, so one sample each would leave `setup_s` to chance.
    fn setups_per_scenario(self) -> usize {
        match self {
            Workload::IspCollect => 1,
            Workload::I2Rounds => 4,
        }
    }

    /// Scenarios one run generates from its seed. A run measures several
    /// topologies, so that its medians vary little between seeds even
    /// though each topology's cost does: over seeds 1-10 at one worker,
    /// probes per subnet spread (IQR / median) by 0.143 (ISP) and 0.073
    /// (Internet2) for the seed's own topology, and by 0.088 and 0.023
    /// for the median of these rotations.
    fn scenarios(self) -> usize {
        match self {
            Workload::IspCollect => 6,
            Workload::I2Rounds => 8,
        }
    }
}

/// One run's settings, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Collect from only the first N targets (smoke runs).
    pub targets: Option<usize>,
    /// Override the workload's worker count (smoke runs use 1 so that
    /// every count repeats exactly).
    pub jobs: Option<usize>,
}

impl Config {
    /// The generator seeds of the run's scenarios: the run's seed first
    /// (so seed 2010 includes the paper's Internet2), then seeds far
    /// apart from it.
    pub fn scenario_seeds(&self) -> Vec<u64> {
        (0..self.workload.scenarios() as u64)
            .map(|i| self.seed.wrapping_add(i.wrapping_mul(1_000_003)))
            .collect()
    }

    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or(self.workload.jobs())
    }

    pub fn batch(&self, jobs: usize) -> BatchConfig {
        BatchConfig {
            jobs,
            use_cache: self.workload.use_cache(),
            protocol: Protocol::Icmp,
            ..BatchConfig::default()
        }
    }
}

/// A directory for the run's files inside the working directory,
/// removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Scratch {
        let dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Wall seconds of one set-up, split by stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub load: f64,
    pub total: f64,
}

/// The set-up product of one scenario: its JSON file, as a user would
/// hand it to `tracenet`, and for the Internet2 workload the loaded
/// scenario with its built, warmed-up network. The ISP workload keeps
/// nothing else resident: every pass loads the file again.
pub struct Prepared {
    pub path: PathBuf,
    pub vantage: Addr,
    pub targets: Vec<Addr>,
    pub warm: Option<(Scenario, SharedNetwork)>,
}

impl Prepared {
    /// Reads and parses the scenario file, as `tracenet batch` does.
    pub fn load(&self) -> Scenario {
        let text = std::fs::read_to_string(&self.path).expect("read the scenario file");
        topogen::io::from_json(&text).expect("the scenario loads")
    }
}

/// Sets up one scenario of `cfg.workload`: generate it from `seed`,
/// round-trip it through its JSON file format, build the network, and
/// for Internet2 warm up with one round.
fn setup_one(cfg: &Config, seed: u64, scratch: &Scratch) -> (Prepared, SetupTimes) {
    let t0 = Instant::now();
    let generated = cfg.workload.generate(seed);
    let generate = t0.elapsed().as_secs_f64();
    let json = topogen::io::to_json(&generated);
    drop(generated);
    let path = scratch.file(&format!("scenario-{seed}.json"));
    std::fs::write(&path, &json).expect("write the scenario file");
    let t1 = Instant::now();
    let scenario = topogen::io::from_json(&json).expect("a generated scenario loads");
    let load = t1.elapsed().as_secs_f64();
    drop(json);
    let vantage = scenario.vantages[0].1;
    let mut targets = scenario.targets.clone();
    if let Some(n) = cfg.targets {
        targets.truncate(n);
    }
    let net = SharedNetwork::new(Network::new(scenario.topology.clone()));
    if cfg.workload.warms_up() {
        run_batch(&net, vantage, &targets, &cfg.batch(cfg.jobs()), &obs::Recorder::disabled());
    }
    let total = t0.elapsed().as_secs_f64();
    let warm = cfg.workload.warms_up().then_some((scenario, net));
    (Prepared { path, vantage, targets, warm }, SetupTimes { generate, load, total })
}

/// Every scenario of the run, set up.
pub struct Setup {
    pub preps: Vec<Prepared>,
    /// Every set-up made, several per scenario where one is short.
    pub times: Vec<SetupTimes>,
    /// The machine-speed scales of the set-up phase, which has its own
    /// calibration samples.
    pub scales: Scales,
}

/// Sets up every scenario of the run, taking a machine-speed sample
/// before each set-up; `setup_s` is the median of the set-up times.
pub fn setup(cfg: &Config, scratch: &Scratch) -> Setup {
    let mut speed = Speed::default();
    let mut times = Vec::new();
    let preps = cfg
        .scenario_seeds()
        .into_iter()
        .map(|seed| {
            let mut last = None;
            for _ in 0..cfg.workload.setups_per_scenario() {
                speed.sample();
                let (prep, t) = setup_one(cfg, seed, scratch);
                times.push(t);
                last = Some(prep);
            }
            last.expect("at least one set-up per scenario")
        })
        .collect();
    Setup { preps, times, scales: speed.scales() }
}

/// How one collection scores against ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grade {
    pub sessions: usize,
    pub aborted: usize,
    pub probes: u64,
    pub subnets: usize,
    /// Ground-truth subnets inferred exactly, as a share of all
    /// evaluated ground-truth subnets.
    pub exact_pct: f64,
    /// Collected addresses that are no interface of the topology.
    pub phantom_addrs: usize,
}

impl Grade {
    pub fn probes_per_subnet(&self) -> f64 {
        self.probes as f64 / self.subnets.max(1) as f64
    }
}

/// Grades a collection with `evalkit::classify`.
pub fn grade(scenario: &Scenario, reports: &[TraceReport]) -> Grade {
    let mut collected = CollectedSet::default();
    for r in reports {
        collected.add_report(r);
    }
    let gt: Vec<_> = scenario.ground_truth.evaluated().collect();
    let classes = classify(&gt, &collected.records());
    let exact = classes.iter().filter(|c| c.class == MatchClass::Exact).count();
    let topo = &scenario.topology;
    Grade {
        sessions: reports.len(),
        aborted: reports.iter().filter(|r| r.aborted).count(),
        probes: reports.iter().map(|r| r.total_probes).sum(),
        subnets: collected.prefixes().len(),
        exact_pct: 100.0 * exact as f64 / gt.len().max(1) as f64,
        phantom_addrs: collected
            .addresses()
            .iter()
            .filter(|&&a| topo.owner_of(a).is_none())
            .count(),
    }
}

/// A hash of a batch's reports, rendered byte-exactly, for identity
/// checks.
pub fn fingerprint(reports: &[TraceReport]) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{reports:?}").hash(&mut h);
    h.finish()
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; NaN (which [`Outcome::metric`] refuses) for no samples,
/// as a failed operation leaves.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `--targets` list handed to the CLI commands.
pub fn target_list(targets: &[Addr]) -> String {
    targets.iter().map(Addr::to_string).collect::<Vec<_>>().join(",")
}

/// Runs a `tracenet` subcommand in-process, as the binary would.
pub fn cli(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    tracenet_cli::run(&argv)
}

/// The number before " probes" in a `record`/`replay` summary line.
pub fn probes_in(summary: &str) -> Option<u64> {
    let head = &summary[..summary.find(" probes")?];
    head.rsplit(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// Everything one run reports: the checks and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness or fidelity checks, one line each.
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Turn the run's wall times into times at the reference machine
    /// speed; 1 until set.
    pub scales: Scales,
}

impl Outcome {
    /// Adds a metric. A value that is no number fails the run and reads 0.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("metric {name} has no value"));
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Adds the measured time of a bulk stage, scaled to the reference
    /// machine speed.
    pub fn time(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metric(name, value * self.scales.data, unit);
    }

    /// Adds a measured rate of a bulk stage, scaled to the reference
    /// machine speed.
    pub fn rate(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metric(name, value / self.scales.data, unit);
    }

    /// Adds a measured time on the per-probe path, scaled to the
    /// reference machine speed.
    pub fn probe_time(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metric(name, value * self.scales.code, unit);
    }

    /// Adds a measured rate of probes per wall time, scaled to the
    /// reference machine speed.
    pub fn probe_rate(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metric(name, value / self.scales.code, unit);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Reads a file's size in bytes.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("stat a file the run wrote").len()
}
