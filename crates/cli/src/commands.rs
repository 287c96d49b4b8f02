//! The CLI subcommands. Each is a pure function from parsed options to
//! output text, which keeps them directly testable.

use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex};

use inet::{Addr, Prefix};
use netsim::Network;
use probe::{Protocol, SimProber};
use topogen::Scenario;
use tracenet::{Session, TracenetOptions};

use crate::args::Opts;

fn load(opts: &Opts) -> Result<Scenario, String> {
    let path = opts.required(0, "scenario file (generate one with `tracenet generate`)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    topogen::io::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn protocol(opts: &Opts) -> Result<Protocol, String> {
    match opts.flag("protocol").unwrap_or("icmp") {
        "icmp" => Ok(Protocol::Icmp),
        "udp" => Ok(Protocol::Udp),
        "tcp" => Ok(Protocol::Tcp),
        other => Err(format!("unknown protocol {other:?} (icmp|udp|tcp)")),
    }
}

/// Parses `--retries` / `--backoff` into a retry policy (see
/// [`probe::RetryPolicy::from_flags`]).
fn retry_policy(opts: &Opts) -> Result<probe::RetryPolicy, String> {
    probe::RetryPolicy::from_flags(opts.flag_opt("retries")?, opts.flag("backoff"))
}

/// The scenario's network with the `--fault-profile` / `--fault-seed`
/// plan attached (see [`netsim::FaultPlan::from_flags`]); a profile
/// without a seed uses seed 2010.
fn network(scenario: &Scenario, opts: &Opts) -> Result<Network, String> {
    let plan = netsim::FaultPlan::from_flags(
        opts.flag("fault-profile"),
        opts.flag_opt("fault-seed")?,
        2010,
    )?;
    let mut net = Network::new(scenario.topology.clone());
    net.set_fault_plan(plan);
    Ok(net)
}

/// Session options from `--max-ttl` and `--fault-budget N` (absent
/// means probe to exhaustion).
fn session_options(opts: &Opts) -> Result<TracenetOptions, String> {
    Ok(TracenetOptions {
        max_ttl: opts.flag_parse("max-ttl", TracenetOptions::default().max_ttl)?,
        hop_fault_budget: opts.flag_opt("fault-budget")?,
        ..TracenetOptions::default()
    })
}

/// Parses `--targets A,B,..`, defaulting to the scenario's target list.
fn targets_from(scenario: &Scenario, opts: &Opts) -> Result<Vec<Addr>, String> {
    match opts.flag("targets") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("invalid target address {s:?}")))
            .collect(),
        None => Ok(scenario.targets.clone()),
    }
}

fn vantage(scenario: &Scenario, opts: &Opts) -> Result<Addr, String> {
    match opts.flag("vantage") {
        None => scenario
            .vantages
            .first()
            .map(|&(_, a)| a)
            .ok_or_else(|| "scenario has no vantage points".to_string()),
        Some(name) => {
            scenario.vantages.iter().find(|(n, _)| n == name).map(|&(_, a)| a).ok_or_else(|| {
                let known: Vec<&str> = scenario.vantages.iter().map(|(n, _)| n.as_str()).collect();
                format!("no vantage {name:?}; scenario has {known:?}")
            })
        }
    }
}

/// `tracenet generate <kind> [--seed N] [--size N] [--out FILE]`
pub fn generate(opts: &Opts) -> Result<String, String> {
    let kind = opts.required(0, "scenario kind (internet2|geant|isp|random)")?;
    let seed = opts.flag_parse("seed", 2010u64)?;
    let scenario = match kind {
        "internet2" => topogen::internet2(seed),
        "geant" => topogen::geant(seed),
        "isp" => topogen::isp_internet(seed),
        "random" => topogen::random_topology(seed, opts.flag_parse("size", 8usize)?),
        other => return Err(format!("unknown scenario kind {other:?}")),
    };
    let json = topogen::io::to_json(&scenario);
    match opts.flag("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!(
                "wrote {path}: scenario {:?}, {} routers, {} subnets, {} targets\n",
                scenario.name,
                scenario.topology.router_count(),
                scenario.topology.subnets().len(),
                scenario.targets.len()
            ))
        }
        None => Ok(json),
    }
}

/// `tracenet info <scenario>`
pub fn info(opts: &Opts) -> Result<String, String> {
    let s = load(opts)?;
    let mut out = String::new();
    out.push_str(&format!("scenario: {}\n", s.name));
    out.push_str(&format!(
        "routers: {} ({} hosts)\n",
        s.topology.router_count(),
        s.topology.routers().iter().filter(|r| r.is_host).count()
    ));
    out.push_str(&format!("subnets: {}\n", s.topology.subnets().len()));
    out.push_str(&format!("interfaces: {}\n", s.topology.ifaces().len()));
    out.push_str(&format!("targets: {}\n", s.targets.len()));
    out.push_str("vantages:\n");
    for (name, addr) in &s.vantages {
        out.push_str(&format!("  {name}: {addr}\n"));
    }
    let mut by_net = std::collections::BTreeMap::new();
    for g in s.ground_truth.evaluated() {
        *by_net.entry(g.network.clone()).or_insert(0usize) += 1;
    }
    out.push_str("evaluated subnets per network:\n");
    for (net, n) in by_net {
        out.push_str(&format!("  {net}: {n}\n"));
    }
    Ok(out)
}

/// The CLI's views of the recorder stream, one sink for all of them:
/// `--trace-log` gets each probe's [`obs::ProbeEvent::to_json`] line,
/// `-v` prints each decision to stderr, `-vv` also prints each probe
/// line there, and `--metrics`/`--metrics-json` fold each probe into the
/// run's wire counters as it arrives. Every stderr line names its
/// session, so the output of concurrent workers stays readable.
struct ViewSink {
    trace_log: Option<BufWriter<std::fs::File>>,
    verbosity: u8,
    metrics: Option<obs::Metrics>,
}

impl obs::EventSink for ViewSink {
    fn emit(&mut self, event: &obs::ProbeEvent) {
        if let Some(metrics) = &mut self.metrics {
            metrics.record(event);
        }
        if self.trace_log.is_none() && self.verbosity < 2 {
            return;
        }
        let line = event.to_json().to_string();
        // An unwritable log or terminal should not take the collection
        // session down; log errors surface at the flush after the run.
        if let Some(log) = &mut self.trace_log {
            let _ = writeln!(log, "{line}");
        }
        if self.verbosity >= 2 {
            let _ = writeln!(std::io::stderr(), "{line}");
        }
    }

    fn emit_decision(&mut self, d: &obs::DecisionEvent) {
        let session = d.session.map_or_else(|| "-".to_string(), |k| k.to_string());
        let _ = writeln!(std::io::stderr(), "session {session} hop {} {d}", d.hop);
    }

    /// Only `-v` prints decisions; below it the recorder skips building
    /// them.
    fn wants_decisions(&self) -> bool {
        self.verbosity >= 1
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.trace_log.as_mut().map_or(Ok(()), Write::flush)
    }
}

/// The views a command asked for: the installed [`ViewSink`], if any,
/// and where `--metrics` (pretty JSON plus a rendered table on stdout)
/// and `--metrics-json` (one compact JSON object) go.
struct Views {
    sink: Option<Arc<Mutex<ViewSink>>>,
    pretty: Option<String>,
    compact: Option<String>,
}

/// Builds the recorder and its views from `--trace-log`, `-v`/`-vv`,
/// `--metrics` and `--metrics-json`. With none of them the recorder is
/// disabled and the run records nothing.
fn views_from(opts: &Opts) -> Result<(obs::Recorder, Views), String> {
    let trace_log = opts
        .flag("trace-log")
        .map(|path| std::fs::File::create(path).map_err(|e| format!("{path}: {e}")))
        .transpose()?
        .map(BufWriter::new);
    let verbosity = opts.verbosity();
    let pretty = opts.flag("metrics").map(str::to_string);
    let compact = opts.flag("metrics-json").map(str::to_string);
    let metrics = (pretty.is_some() || compact.is_some()).then(obs::Metrics::default);
    let sink = (trace_log.is_some() || verbosity > 0 || metrics.is_some())
        .then(|| Arc::new(Mutex::new(ViewSink { trace_log, verbosity, metrics })));
    let recorder = match &sink {
        Some(sink) => obs::Recorder::new().with_sink(obs::SinkHandle::shared(Arc::clone(sink))),
        None => obs::Recorder::disabled(),
    };
    Ok((recorder, Views { sink, pretty, compact }))
}

impl Views {
    /// Flushes `--trace-log` and writes the metrics files: the wire
    /// counters the sink folded, plus the hop costs and phase ticks of
    /// `reports` and the subnet cache's ledger. Returns the rendered
    /// table when `--metrics` asked for human output.
    fn finish(
        self,
        reports: &[tracenet::TraceReport],
        cache: sweep::CacheStats,
    ) -> Result<String, String> {
        let Some(sink) = self.sink else { return Ok(String::new()) };
        let mut view = sink.lock().map_err(|_| "view sink poisoned".to_string())?;
        obs::EventSink::flush(&mut *view).map_err(|e| format!("--trace-log: {e}"))?;
        let Some(mut metrics) = view.metrics.take() else { return Ok(String::new()) };
        for report in reports {
            report.fold_into(&mut metrics);
        }
        metrics.set_cache(cache.hits, cache.skips, cache.misses);
        if let Some(path) = &self.pretty {
            let json = serde_json::to_string_pretty(&metrics.to_json())
                .map_err(|e| format!("{path}: {e}"))?;
            std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = &self.compact {
            std::fs::write(path, metrics.to_json().to_string() + "\n")
                .map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(if self.pretty.is_some() { metrics.render_table() } else { String::new() })
    }
}

/// `tracenet trace <scenario> (--target A | --all) [...]` — one session
/// per target on the batch engine, at one job with the subnet cache off:
/// the reports, printed in target order, are exactly the ones `record
/// --jobs 1` writes.
pub fn trace(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let cfg = sweep::BatchConfig {
        jobs: 1,
        use_cache: false,
        protocol: protocol(opts)?,
        opts: session_options(opts)?,
        retry: retry_policy(opts)?,
        ..sweep::BatchConfig::default()
    };
    let (recorder, views) = views_from(opts)?;

    let targets: Vec<Addr> = if opts.has("all") {
        scenario.targets.clone()
    } else {
        vec![opts.flag_required::<Addr>("target").map_err(|_| {
            "missing --target ADDR (or --all for the scenario's target list)".to_string()
        })?]
    };

    let net = network(&scenario, opts)?;
    let result = sweep::run_batch(&net, v, &targets, &cfg, &recorder);
    let metrics_table = views.finish(&result.reports, result.cache)?;
    let reports = result.reports;
    if opts.has("json") {
        return Ok(
            serde_json::Value::Array(reports.iter().map(report_to_json).collect()).to_string()
        );
    }
    let mut out: String = reports.iter().map(|r| format!("{r}\n")).collect();
    out.push_str(&metrics_table);
    Ok(out)
}

fn cost_to_json(c: &tracenet::PhaseCost) -> serde_json::Value {
    serde_json::json!({
        "trace": c.trace,
        "position": c.position,
        "explore": c.explore,
        "total": c.total(),
    })
}

fn report_to_json(r: &tracenet::TraceReport) -> serde_json::Value {
    serde_json::json!({
        "vantage": r.vantage.to_string(),
        "destination": r.destination.to_string(),
        "reached": r.destination_reached,
        "probes": r.total_probes,
        "completeness": r.completeness().label(),
        "aborted": r.aborted,
        "cost": cost_to_json(&r.phase_totals()),
        "hops": r.hops.iter().map(|h| serde_json::json!({
            "cost": cost_to_json(&h.cost),
            "hop": h.hop,
            "completeness": h.completeness.label(),
            "addr": h.addr.map(|a| a.to_string()),
            "subnet": h.subnet.as_ref().map(|s| serde_json::json!({
                "prefix": s.record.prefix().to_string(),
                "members": s.record.members().iter().map(|m| m.to_string())
                    .collect::<Vec<_>>(),
                "pivot": s.pivot.to_string(),
                "contra_pivot": s.contra_pivot.map(|c| c.to_string()),
                "on_path": s.on_path,
            })),
        })).collect::<Vec<_>>(),
    })
}

/// `tracenet traceroute <scenario> --target A [...]`
pub fn traceroute_cmd(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let proto = protocol(opts)?;
    let target: Addr = opts.flag_required("target")?;
    let mut tr_opts = traceroute::TracerouteOptions::default();
    tr_opts.paris = opts.has("paris");
    tr_opts.probes_per_hop = opts.flag_parse("queries", tr_opts.probes_per_hop)?;
    tr_opts.max_ttl = opts.flag_parse("max-ttl", tr_opts.max_ttl)?;

    let net = Network::new(scenario.topology.clone());
    let mut prober = SimProber::with_protocol(&net, v, proto).flow_mode(if tr_opts.paris {
        probe::FlowMode::Paris
    } else {
        probe::FlowMode::Classic
    });
    let report = traceroute::traceroute(&mut prober, target, tr_opts);
    Ok(report.to_string())
}

/// `tracenet ping <scenario> --target A [--count N]`
pub fn ping_cmd(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let target: Addr = opts.flag_required("target")?;
    let count = opts.flag_parse("count", 3u8)?;
    let net = Network::new(scenario.topology.clone());
    let mut prober = SimProber::new(&net, v);
    let r = traceroute::ping(&mut prober, target, count);
    Ok(match r.reply_from {
        Some(from) => format!("{}: {}/{} replies (from {from})\n", r.target, r.received, r.sent),
        None => format!("{}: no reply ({} probes)\n", r.target, r.sent),
    })
}

/// `tracenet sweep <scenario> --prefix P`
pub fn sweep(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let prefix: Prefix = opts.flag_required("prefix")?;
    let net = Network::new(scenario.topology.clone());
    let mut prober = SimProber::new(&net, v);
    let alive = traceroute::ping_sweep(&mut prober, prefix);
    let mut out = format!("{prefix}: {}/{} alive\n", alive.len(), prefix.probe_addrs().len());
    for a in alive {
        out.push_str(&format!("  {a}\n"));
    }
    Ok(out)
}

/// `tracenet batch <scenario> [--targets A,B,..] [--jobs N] [--no-cache]
/// [--rtt-us N]` — trace many targets on a worker pool over one shared
/// network, with a cross-session subnet cache unless `--no-cache` is
/// given; `--rtt-us` models a per-probe round-trip time.
pub fn batch(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let proto = protocol(opts)?;
    let (recorder, views) = views_from(opts)?;
    let targets = targets_from(&scenario, opts)?;
    let tn_opts = TracenetOptions {
        hop_fault_budget: opts.flag_opt("fault-budget")?,
        ..TracenetOptions::default()
    };
    let cfg = sweep::BatchConfig {
        jobs: opts.flag_parse("jobs", 4usize)?,
        use_cache: !opts.has("no-cache"),
        protocol: proto,
        opts: tn_opts,
        retry: retry_policy(opts)?,
        // `--rtt-us N` models an N-microsecond probe round trip, making
        // the batch latency-bound (where --jobs overlaps the waits).
        probe_rtt: std::time::Duration::from_micros(opts.flag_parse("rtt-us", 0u64)?),
    };
    let net = network(&scenario, opts)?;
    let result = sweep::run_batch(&net, v, &targets, &cfg, &recorder);
    let (collected, cache) = (evalkit::CollectedSet::from_batch(&result), result.cache);
    let metrics_table = views.finish(&result.reports, cache)?;
    if opts.has("json") {
        let records = collected.records();
        return Ok(serde_json::json!({
            "subnets": records.iter().map(|r| serde_json::json!({
                "prefix": r.prefix().to_string(),
                "members": r.members().iter().map(|m| m.to_string()).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
            "addresses": collected.addresses().len(),
            "probes": collected.probes,
            "sessions": collected.sessions,
            "cache": serde_json::json!({
                "hits": cache.hits,
                "skips": cache.skips,
                "misses": cache.misses,
            }),
        })
        .to_string());
    }
    let mut out = format!(
        "collected {} subnets, {} addresses, {} probes over {} sessions ({} jobs)\n",
        collected.prefixes().len(),
        collected.addresses().len(),
        collected.probes,
        collected.sessions,
        cfg.jobs.clamp(1, targets.len().max(1)),
    );
    if cfg.use_cache {
        out.push_str(&format!(
            "subnet cache: {} hits, {} skips, {} misses\n",
            cache.hits, cache.skips, cache.misses
        ));
    } else {
        out.push_str("subnet cache: disabled\n");
    }
    out.push_str(&metrics_table);
    Ok(out)
}

/// `tracenet map <scenario> [--vantage NAME] [--protocol ...]` — trace
/// every scenario target on the batch engine (one job, cache off, as
/// `trace --all`) and emit the assembled subnet-level topology map as
/// Graphviz DOT.
pub fn map(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let cfg = sweep::BatchConfig {
        jobs: 1,
        use_cache: false,
        protocol: protocol(opts)?,
        ..sweep::BatchConfig::default()
    };
    let net = Network::new(scenario.topology.clone());
    let mut graph = evalkit::graph::SubnetGraph::new();
    for report in
        sweep::run_batch(&net, v, &scenario.targets, &cfg, &obs::Recorder::disabled()).reports
    {
        graph.add_report(&report);
    }
    Ok(graph.to_dot(&format!(
        "{} from {} ({} subnets, {} adjacencies)",
        scenario.name,
        v,
        graph.node_count(),
        graph.edge_count()
    )))
}

/// `tracenet crossval <scenario> [--protocol ...]` — run every vantage
/// over the shared target list and print the Figure 6-style agreement.
pub fn crossval(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    if scenario.vantages.len() != 3 {
        return Err(format!(
            "crossval needs exactly 3 vantage points, scenario has {}",
            scenario.vantages.len()
        ));
    }
    let proto = protocol(opts)?;
    let net = Network::new(scenario.topology.clone());
    let mut sets = Vec::new();
    for (name, addr) in scenario.vantages.clone() {
        let collected = evalkit::run::run_tracenet(
            &net,
            addr,
            &scenario.targets,
            proto,
            &TracenetOptions::default(),
        );
        sets.push((name, collected.prefixes()));
    }
    let venn = evalkit::crossval::VennPartition::compute(&sets[0].1, &sets[1].1, &sets[2].1);
    let mut out = String::new();
    out.push_str(&format!(
        "vantages: {} ({}), {} ({}), {} ({})\n",
        sets[0].0,
        sets[0].1.len(),
        sets[1].0,
        sets[1].1.len(),
        sets[2].0,
        sets[2].1.len()
    ));
    out.push_str(&format!(
        "only: {} / {} / {}; pairwise: {} {} {}; all three: {}\n",
        venn.only_a, venn.only_b, venn.only_c, venn.ab, venn.ac, venn.bc, venn.abc
    ));
    out.push_str(&format!(
        "seen by all three: {}; verified by at least one other: {}\n",
        evalkit::render::pct(venn.all_three_rate()),
        evalkit::render::pct(venn.verified_by_another_rate()),
    ));
    Ok(out)
}

/// Serializes the session options into the exchange-log header, so a
/// replay re-creates the exact configuration of the recorded run.
fn options_to_json(o: &TracenetOptions) -> serde_json::Value {
    let h = &o.heuristics;
    serde_json::json!({
        "max_ttl": o.max_ttl,
        "min_prefix_len": o.min_prefix_len,
        "distance_search_span": o.distance_search_span,
        "utilization_stop": o.utilization_stop,
        "reuse_known_subnets": o.reuse_known_subnets,
        "explore_off_path": o.explore_off_path,
        "hop_fault_budget": o.hop_fault_budget.map(u64::from),
        "heuristics": [
            h.h2_upper_bound_subnet_contiguity,
            h.h3_single_contra_pivot,
            h.h4_lower_bound_subnet_contiguity,
            h.h5_mate31_shortcut,
            h.h6_fixed_entry_points,
            h.h7_upper_bound_router_contiguity,
            h.h8_lower_bound_router_contiguity,
            h.h9_boundary_reduction,
        ],
    })
}

/// Reads [`options_to_json`]'s rendering back. Every field is required:
/// defaulting a missing one would silently replay under a different
/// configuration than the recording ran.
fn options_from_json(v: &serde_json::Value) -> Result<tracenet::TracenetOptions, String> {
    fn num(v: &serde_json::Value, key: &str) -> Result<u8, String> {
        v[key]
            .as_u64()
            .and_then(|n| u8::try_from(n).ok())
            .ok_or_else(|| format!("options: missing or invalid {key:?}"))
    }
    fn switch(v: &serde_json::Value, key: &str) -> Result<bool, String> {
        v[key].as_bool().ok_or_else(|| format!("options: missing or invalid {key:?}"))
    }
    let h: Vec<bool> = v["heuristics"]
        .as_array()
        .ok_or("options: missing heuristics array")?
        .iter()
        .map(serde_json::Value::as_bool)
        .collect::<Option<_>>()
        .ok_or("options: heuristic switches must be booleans")?;
    if h.len() != 8 {
        return Err(format!("options: expected 8 heuristic switches (H2–H9), got {}", h.len()));
    }
    Ok(TracenetOptions {
        max_ttl: num(v, "max_ttl")?,
        min_prefix_len: num(v, "min_prefix_len")?,
        distance_search_span: num(v, "distance_search_span")?,
        utilization_stop: switch(v, "utilization_stop")?,
        reuse_known_subnets: switch(v, "reuse_known_subnets")?,
        explore_off_path: switch(v, "explore_off_path")?,
        hop_fault_budget: if v["hop_fault_budget"].is_null() {
            None
        } else {
            Some(
                v["hop_fault_budget"]
                    .as_u64()
                    .and_then(|n| u16::try_from(n).ok())
                    .ok_or("options: invalid hop_fault_budget")?,
            )
        },
        heuristics: tracenet::HeuristicSet {
            h2_upper_bound_subnet_contiguity: h[0],
            h3_single_contra_pivot: h[1],
            h4_lower_bound_subnet_contiguity: h[2],
            h5_mate31_shortcut: h[3],
            h6_fixed_entry_points: h[4],
            h7_upper_bound_router_contiguity: h[5],
            h8_lower_bound_router_contiguity: h[6],
            h9_boundary_reduction: h[7],
        },
    })
}

/// `tracenet record <scenario> --out FILE [--targets A,B,..] [--jobs N]
/// [--vantage NAME] [--protocol icmp|udp|tcp] [--max-ttl N]
/// [fault/retry flags]` — the flight recorder: run a batch and capture
/// every request/response pair, every heuristic verdict, and each
/// session's final report into one exchange log for
/// `replay`/`diff`/`explain`.
pub fn record(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let proto = protocol(opts)?;
    let out_path = opts.flag("out").ok_or("missing --out FILE (where the exchange log goes)")?;
    let targets = targets_from(&scenario, opts)?;
    if targets.is_empty() {
        return Err("nothing to record: scenario has no targets".to_string());
    }
    let tn_opts = session_options(opts)?;
    let jobs = opts.flag_parse("jobs", 1usize)?;
    let header = obs::ExchangeHeader {
        version: obs::FORMAT_VERSION,
        vantage: v,
        protocol: proto,
        targets: targets.clone(),
        jobs: jobs as u64,
        options: options_to_json(&tn_opts),
    };
    let writer = Arc::new(std::sync::Mutex::new(
        obs::ExchangeWriter::create(std::path::Path::new(out_path), &header)
            .map_err(|e| format!("{out_path}: {e}"))?,
    ));
    let recorder = obs::Recorder::new()
        .with_sink(obs::SinkHandle::new(obs::ExchangeSink::new(Arc::clone(&writer))));
    let cfg = sweep::BatchConfig {
        jobs,
        // Replay re-runs sessions one at a time; a cross-session subnet
        // cache would couple them through shared state the log cannot
        // reproduce, so recording always runs cache-off.
        use_cache: false,
        protocol: proto,
        opts: tn_opts,
        retry: retry_policy(opts)?,
        probe_rtt: std::time::Duration::ZERO,
    };
    let net = network(&scenario, opts)?;
    let result = sweep::run_batch(&net, v, &targets, &cfg, &recorder);
    let mut w = writer.lock().map_err(|_| "exchange log writer poisoned".to_string())?;
    for (k, report) in result.reports.iter().enumerate() {
        w.write_report(k as u64, &report_to_json(report));
    }
    w.flush().map_err(|e| format!("{out_path}: {e}"))?;
    Ok(format!(
        "recorded {} sessions ({} probes) to {out_path}\n",
        result.reports.len(),
        result.probes
    ))
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "session panicked".to_string()
    }
}

/// Buckets an exchange log's `lines` by session in one pass: entry `k`
/// holds session `k`'s lines in log order, for each of the header's
/// `n` targets, so per-session commands never rescan the whole log.
fn by_session<'a, T>(
    n: usize,
    lines: impl IntoIterator<Item = (Option<u64>, &'a T)>,
) -> Vec<Vec<&'a T>> {
    let mut sessions = vec![Vec::new(); n];
    for (session, line) in lines {
        if let Some(s) = session.and_then(|k| sessions.get_mut(usize::try_from(k).ok()?)) {
            s.push(line);
        }
    }
    sessions
}

/// `tracenet replay <log>` — re-run every recorded session against the
/// log itself (no simulator involved) and check that each replayed
/// `TraceReport` is byte-identical to the recorded one.
pub fn replay(opts: &Opts) -> Result<String, String> {
    let path = opts.required(0, "exchange log (record one with `tracenet record`)")?;
    let log = obs::ExchangeLog::load(std::path::Path::new(path))?;
    let tn_opts = options_from_json(&log.header.options)?;
    let mut diverged = Vec::new();
    let mut probes = 0u64;
    let events = by_session(log.header.targets.len(), log.events.iter().map(|e| (e.session, e)));
    for (k, (&target, events)) in log.header.targets.iter().zip(events).enumerate() {
        let session = k as u64;
        let recorded = log
            .report_for(session)
            .ok_or_else(|| format!("session {session}: log carries no report line"))?;
        let mut prober =
            probe::ReplayProber::from_events(log.header.vantage, log.header.protocol, &events)
                .map_err(|e| format!("session {session}: {e}"))?;
        let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Session::new(&mut prober, tn_opts).run(target)
        }));
        match replayed {
            Err(panic) => diverged
                .push(format!("session {session} ({target}): {}", panic_message(panic.as_ref()))),
            Ok(report) => {
                probes += report.total_probes;
                if report_to_json(&report) != *recorded {
                    diverged.push(format!(
                        "session {session} ({target}): replayed report differs from recorded report"
                    ));
                } else if prober.remaining() != 0 {
                    diverged.push(format!(
                        "session {session} ({target}): {} recorded probes never re-asked",
                        prober.remaining()
                    ));
                }
            }
        }
    }
    if diverged.is_empty() {
        Ok(format!(
            "replayed {} sessions ({probes} probes) from {path}: reports byte-identical\n",
            log.header.targets.len()
        ))
    } else {
        Err(format!("replay diverged:\n  {}", diverged.join("\n  ")))
    }
}

/// One hop of a report JSON, compressed to a line for diff output.
fn hop_summary(hop: &serde_json::Value) -> String {
    let addr = hop["addr"].as_str().unwrap_or("*");
    let completeness = hop["completeness"].as_str().unwrap_or("?");
    match hop["subnet"]["prefix"].as_str() {
        Some(prefix) => {
            let members = hop["subnet"]["members"].as_array().map_or(0, Vec::len);
            format!("{addr} [{completeness}] {prefix} ({members} members)")
        }
        None => format!("{addr} [{completeness}] no subnet"),
    }
}

/// Appends one line per field where two recorded reports disagree.
fn diff_reports(
    session: u64,
    target: Addr,
    ra: &serde_json::Value,
    rb: &serde_json::Value,
    out: &mut Vec<String>,
) {
    if ra == rb {
        return;
    }
    let mut noted = false;
    for key in ["probes", "reached", "completeness", "aborted"] {
        let (va, vb) = (&ra[key], &rb[key]);
        if va != vb {
            out.push(format!("session {session} ({target}): {key} {va} vs {vb}"));
            noted = true;
        }
    }
    let empty = Vec::new();
    let ha = ra["hops"].as_array().unwrap_or(&empty);
    let hb = rb["hops"].as_array().unwrap_or(&empty);
    if ha.len() != hb.len() {
        out.push(format!("session {session} ({target}): {} vs {} hops", ha.len(), hb.len()));
        noted = true;
    }
    for (va, vb) in ha.iter().zip(hb) {
        if va == vb {
            continue;
        }
        let hop = va["hop"].as_u64().unwrap_or(0);
        out.push(format!(
            "session {session} ({target}): hop {hop}: {} vs {}",
            hop_summary(va),
            hop_summary(vb)
        ));
        noted = true;
    }
    if !noted {
        out.push(format!("session {session} ({target}): reports differ"));
    }
}

/// `tracenet diff <a> <b>` — compare two exchange logs session by
/// session. Equivalent logs report so and exit 0; any divergence prints
/// a structured report and exits nonzero.
pub fn diff(opts: &Opts) -> Result<String, String> {
    let a_path = opts.required(0, "first exchange log")?;
    let b_path = opts.required(1, "second exchange log")?;
    let a = obs::ExchangeLog::load(std::path::Path::new(a_path))?;
    let b = obs::ExchangeLog::load(std::path::Path::new(b_path))?;
    let mut lines = Vec::new();
    if a.header.vantage != b.header.vantage {
        lines.push(format!("header: vantage {} vs {}", a.header.vantage, b.header.vantage));
    }
    if a.header.protocol != b.header.protocol {
        lines.push(format!("header: protocol {:?} vs {:?}", a.header.protocol, b.header.protocol));
    }
    if a.header.targets != b.header.targets {
        lines.push(format!(
            "header: target lists differ ({} vs {} targets)",
            a.header.targets.len(),
            b.header.targets.len()
        ));
    }
    if a.header.options != b.header.options {
        lines.push("header: collection options differ".to_string());
    }
    let probes = |log: &obs::ExchangeLog| -> Vec<usize> {
        let n = log.header.targets.len();
        by_session(n, log.events.iter().map(|e| (e.session, e))).iter().map(Vec::len).collect()
    };
    let counts = probes(&a).into_iter().zip(probes(&b));
    for (k, (&target, (ea, eb))) in a.header.targets.iter().zip(counts).enumerate() {
        let session = k as u64;
        if ea != eb {
            lines.push(format!("session {session} ({target}): {ea} vs {eb} probe events"));
        }
        match (a.report_for(session), b.report_for(session)) {
            (None, None) => {}
            (Some(_), None) => {
                lines.push(format!("session {session} ({target}): report only in {a_path}"));
            }
            (None, Some(_)) => {
                lines.push(format!("session {session} ({target}): report only in {b_path}"));
            }
            (Some(ra), Some(rb)) => diff_reports(session, target, ra, rb, &mut lines),
        }
    }
    if lines.is_empty() {
        Ok(format!(
            "logs are equivalent: {} sessions, {} probe events\n",
            a.header.targets.len(),
            a.events.len()
        ))
    } else {
        Err(format!("exchange logs diverge ({a_path} vs {b_path}):\n  {}", lines.join("\n  ")))
    }
}

/// `tracenet explain <log> <subnet-or-addr>` — print the inference tree
/// behind one collected subnet: every positioning verdict and H1–H9
/// decision the recorded run took about addresses in the prefix,
/// including why degraded hops degraded.
pub fn explain(opts: &Opts) -> Result<String, String> {
    let path = opts.required(0, "exchange log")?;
    let what = opts.required(1, "subnet prefix (e.g. 10.0.2.0/29) or address")?;
    let log = obs::ExchangeLog::load(std::path::Path::new(path))?;
    let prefix: Prefix = if what.contains('/') {
        what.parse().map_err(|_| format!("invalid prefix {what:?}"))?
    } else {
        let addr: Addr = what.parse().map_err(|_| format!("invalid address {what:?}"))?;
        Prefix::containing(addr, 32)
    };
    let mut out = format!("{what}: inference record from {path}\n");
    let mut matched = false;
    let decisions =
        by_session(log.header.targets.len(), log.decisions.iter().map(|d| (d.session, d)));
    for (k, (&target, decisions)) in log.header.targets.iter().zip(decisions).enumerate() {
        let session = k as u64;
        let hits: Vec<&obs::DecisionEvent> = decisions
            .into_iter()
            .filter(|d| d.subject.is_some_and(|a| prefix.contains(a)))
            .collect();
        if hits.is_empty() {
            continue;
        }
        matched = true;
        out.push_str(&format!("\nsession {session} — target {target}\n"));
        let mut hop = None;
        for d in hits {
            if hop != Some(d.hop) {
                hop = Some(d.hop);
                out.push_str(&format!("  hop {}\n", d.hop));
            }
            out.push_str(&format!("    {d}\n"));
        }
    }
    if !matched {
        let mut subnets: Vec<String> = log
            .reports
            .iter()
            .flat_map(|(_, r)| r["hops"].as_array().cloned().unwrap_or_default())
            .filter_map(|h| h["subnet"]["prefix"].as_str().map(str::to_string))
            .collect();
        subnets.sort();
        subnets.dedup();
        return Err(format!(
            "no recorded decisions about {what} in {path}\ncollected subnets: {}",
            if subnets.is_empty() { "(none)".to_string() } else { subnets.join(", ") }
        ));
    }
    Ok(out)
}

/// `tracenet eval <scenario> [--protocol ...]`
pub fn eval(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let proto = protocol(opts)?;
    let net = Network::new(scenario.topology.clone());
    let collected =
        evalkit::run::run_tracenet(&net, v, &scenario.targets, proto, &TracenetOptions::default());

    let mut out = format!(
        "collected {} subnets, {} addresses, {} probes over {} sessions\n",
        collected.prefixes().len(),
        collected.addresses().len(),
        collected.probes,
        collected.sessions
    );
    // Score per evaluated network.
    let mut networks: Vec<String> =
        scenario.ground_truth.evaluated().map(|g| g.network.clone()).collect();
    networks.sort();
    networks.dedup();
    for network in networks {
        let gt: Vec<&topogen::GtSubnet> = scenario.ground_truth.of_network(&network).collect();
        let mut cls = evalkit::classify::classify(&gt, &collected.records());
        let mut auditor = SimProber::new(&net, v);
        evalkit::audit::audit_classifications(&mut auditor, &mut cls);
        let table = evalkit::classify::SubnetTable::build(&cls);
        out.push_str(&format!("\n== {network} ==\n{table}"));
    }
    Ok(out)
}
