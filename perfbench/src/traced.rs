//! The traced run: per-layer metrics, timed from outside at the public
//! seams the crates export. Nothing inside the crates is instrumented.
//!
//! - `topogen`: scenario generation and `topogen::io` load, from set-up.
//! - `netsim` routing: `RoutingTable::compute`, with its allocations.
//! - The collection layers: the benchmark drives the same per-target
//!   pipeline `sweep::run_batch` uses (an `IdentAllocator` block,
//!   `SharedNetwork::prober`, `Session::run`, a `SubnetCache` store), with
//!   timing wrappers at the `probe::Prober` and `tracenet::SubnetStore`
//!   seams. What a session spends outside both is `core` self time.
//! - `wire` and the `netsim` walk: a `VecSink` capture of the probe
//!   stream is re-encoded with `wire::builder` and injected into a fresh
//!   `ConcurrentNetwork`, which splits encode, walk and reply decode.
//! - `sweep`: `run_batch` untraced at one and two workers.
//! - `obs`: a timed `EventSink` around the exchange-log sink (write), and
//!   `ExchangeLog::load` of a log from `tracenet record` (read).
//! - Replay: `probe::ReplayProber` behind the timed `Prober` wrapper.
//!
//! Fidelity checks fail the run: the traced loop must reproduce
//! `run_batch`'s reports byte-identically at one worker, the re-injected
//! stream must claim every recorded tick and hear every recorded
//! responder, and every replayed session must consume its whole script.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use inet::Addr;
use netsim::{ConcurrentNetwork, Network, RoutingTable, Verdict};
use obs::{
    DecisionEvent, EventSink, ExchangeHeader, ExchangeLog, ExchangeSink, ExchangeWriter,
    ProbeEvent, Recorder, SinkHandle, VecSink,
};
use probe::{
    IdentAllocator, IdentSpace, ProbeOutcome, ProbeStats, Prober, Protocol, SharedNetwork,
};
use sweep::{run_batch, BatchResult, SubnetCache};
use topogen::Scenario;
use tracenet::{CacheLookup, ObservedSubnet, Session, SubnetStore, TraceReport};
use wire::{builder, Packet};

use crate::common::{
    cli, fingerprint, grade, median, quantile, setup, target_list, Config, Outcome, Prepared,
    Scratch, SetupTimes,
};
use crate::speed::Speed;
use crate::sys::{process_cpu, Allocs};

/// The traced scenario: its set-up product and the scenario loaded from
/// its file.
type Input<'a> = (&'a Prepared, &'a Scenario);

/// Repetitions a traced run makes even when `--seconds` runs out first.
const MIN_REPS: usize = 2;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Time and counts seen at the `Prober` seam by one thread.
#[derive(Default)]
struct ProberAcc {
    ns: Cell<u64>,
    sent: Cell<u64>,
    requests: Cell<u64>,
    timeouts: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// A `Prober` that times every call into the prober stack below it and,
/// when dropped at the session's end, adds the stack's counters.
struct TimedProber<'a, P: Prober> {
    inner: P,
    acc: &'a ProberAcc,
}

impl<P: Prober> Prober for TimedProber<'_, P> {
    fn src(&self) -> Addr {
        self.inner.src()
    }

    fn protocol(&self) -> Protocol {
        self.inner.protocol()
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
        let t0 = Instant::now();
        let outcome = self.inner.probe_with_flow(dst, ttl, flow);
        bump(&self.acc.ns, ns(t0.elapsed()));
        outcome
    }

    fn stats(&self) -> ProbeStats {
        self.inner.stats()
    }

    fn clock(&self) -> u64 {
        self.inner.clock()
    }
}

impl<P: Prober> Drop for TimedProber<'_, P> {
    fn drop(&mut self) {
        let s = self.inner.stats();
        bump(&self.acc.sent, s.sent);
        bump(&self.acc.requests, s.requests);
        bump(&self.acc.timeouts, s.timeouts);
    }
}

/// A `SubnetStore` that times the cache behind it.
struct TimedStore {
    inner: SubnetCache,
    lookup_ns: AtomicU64,
    admit_ns: AtomicU64,
    lookups: AtomicU64,
}

impl SubnetStore for TimedStore {
    fn lookup(&self, prev: Option<Addr>, v: Addr, d: u8) -> CacheLookup {
        let t0 = Instant::now();
        let found = self.inner.lookup(prev, v, d);
        self.lookup_ns.fetch_add(ns(t0.elapsed()), Relaxed);
        self.lookups.fetch_add(1, Relaxed);
        found
    }

    fn admit(&self, prev: Option<Addr>, v: Addr, d: u8, outcome: Option<&ObservedSubnet>) {
        let t0 = Instant::now();
        self.inner.admit(prev, v, d, outcome);
        self.admit_ns.fetch_add(ns(t0.elapsed()), Relaxed);
    }
}

/// An `EventSink` that times the sink behind it.
struct TimedSink<S: EventSink> {
    inner: S,
    ns: Arc<AtomicU64>,
    events: Arc<AtomicU64>,
}

impl<S: EventSink> TimedSink<S> {
    fn timed(&mut self, f: impl FnOnce(&mut S)) {
        let t0 = Instant::now();
        f(&mut self.inner);
        self.ns.fetch_add(ns(t0.elapsed()), Relaxed);
        self.events.fetch_add(1, Relaxed);
    }
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn emit(&mut self, event: &ProbeEvent) {
        self.timed(|s| s.emit(event));
    }

    fn emit_decision(&mut self, decision: &DecisionEvent) {
        self.timed(|s| s.emit_decision(decision));
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn fresh(scenario: &Scenario) -> SharedNetwork {
    SharedNetwork::new(Network::new(scenario.topology.clone()))
}

/// The sentinel `run_batch` reports for a session that panicked.
fn aborted(vantage: Addr, destination: Addr) -> TraceReport {
    TraceReport {
        vantage,
        destination,
        destination_reached: false,
        hops: Vec::new(),
        total_probes: 0,
        cache_hits: 0,
        aborted: true,
    }
}

/// One untraced `run_batch` on a fresh network.
struct Untraced {
    result: BatchResult,
    wall: f64,
    cpu: f64,
    allocs: Allocs,
}

fn untraced(cfg: &Config, input: Input, jobs: usize, recorder: &Recorder) -> Untraced {
    let (prep, net) = (input.0, fresh(input.1));
    let (cpu0, allocs0, t0) = (process_cpu(), Allocs::now(), Instant::now());
    let result = run_batch(&net, prep.vantage, &prep.targets, &cfg.batch(jobs), recorder);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (process_cpu() - cpu0).as_secs_f64();
    Untraced { result, wall, cpu, allocs: allocs0.since() }
}

/// One pass of the bench-built session loop.
#[derive(Default)]
struct Traced {
    reports: Vec<TraceReport>,
    wall: f64,
    session_ns: Vec<u64>,
    prober_ns: u64,
    sent: u64,
    requests: u64,
    timeouts: u64,
    store_ns: u64,
    lookup_ns: u64,
    lookups: u64,
}

fn traced(cfg: &Config, input: Input, threads: usize) -> Traced {
    let (prep, net) = (input.0, fresh(input.1));
    let bc = cfg.batch(threads);
    let store = bc.use_cache.then(|| {
        Arc::new(TimedStore {
            inner: SubnetCache::new(),
            lookup_ns: AtomicU64::new(0),
            admit_ns: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
        })
    });
    let targets = &prep.targets;
    let block = IdentAllocator::new().block(IdentSpace::Tracenet, targets.len());
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(targets.len()));
    let totals = Mutex::new(Traced::default());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let acc = ProberAcc::default();
                let mut mine = Vec::new();
                loop {
                    let k = next.fetch_add(1, Relaxed);
                    let Some(&target) = targets.get(k) else { break };
                    let prober = TimedProber {
                        inner: net
                            .prober(prep.vantage, bc.protocol)
                            .ident(block.get(k))
                            .retry_policy(bc.retry),
                        acc: &acc,
                    };
                    let t = Instant::now();
                    let report = catch_unwind(AssertUnwindSafe(|| {
                        let mut session = Session::new(prober, bc.opts);
                        if let Some(store) = &store {
                            session = session.with_subnet_store(store.clone());
                        }
                        session.run(target)
                    }))
                    .unwrap_or_else(|_| aborted(prep.vantage, target));
                    mine.push((k, report, ns(t.elapsed())));
                }
                let mut tot = totals.lock().expect("no worker panics holding the totals");
                tot.prober_ns += acc.ns.get();
                tot.sent += acc.sent.get();
                tot.requests += acc.requests.get();
                tot.timeouts += acc.timeouts.get();
                done.lock().expect("no worker panics holding the reports").extend(mine);
            });
        }
    });
    let mut out = totals.into_inner().expect("workers joined");
    out.wall = t0.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("workers joined");
    done.sort_by_key(|(k, _, _)| *k);
    out.session_ns = done.iter().map(|(_, _, t)| *t).collect();
    out.reports = done.into_iter().map(|(_, r, _)| r).collect();
    if let Some(s) = store {
        out.lookup_ns = s.lookup_ns.load(Relaxed);
        out.store_ns = out.lookup_ns + s.admit_ns.load(Relaxed);
        out.lookups = s.lookups.load(Relaxed);
    }
    out
}

/// The captured probe stream re-injected into a fresh network.
#[derive(Default)]
struct Reinjected {
    probes: u64,
    replies: u64,
    encode_ns: u64,
    inject_ns: u64,
    decode_ns: u64,
    walk_events: u64,
    tick_mismatches: u64,
    responder_mismatches: u64,
}

/// Rebuilds each captured probe as the shared prober built it: the
/// session's ident from the target-index block, and a sequence number
/// counting the session's wire sends from 1.
fn rebuild(events: &[ProbeEvent], idents: &probe::IdentBlock) -> Vec<(u64, Packet)> {
    let mut seq = std::collections::HashMap::<u64, u16>::new();
    events
        .iter()
        .map(|e| {
            assert_eq!(e.protocol, Protocol::Icmp, "the workloads probe with ICMP");
            let k = e.session.expect("batch events carry their session");
            let s = seq.entry(k).or_insert(0);
            *s = s.wrapping_add(1);
            (e.tick, builder::icmp_probe(e.vantage, e.dst, e.ttl, idents.get(k as usize), *s))
        })
        .collect()
}

/// Moves the clock to just before `tick`: only a retry delay skips
/// ticks, and replaying it needs `advance`.
fn catch_up(net: &ConcurrentNetwork, tick: u64) {
    let gap = tick.saturating_sub(net.tick() + 1);
    if gap > 0 {
        net.advance(gap);
    }
}

fn reinject((prep, scenario): Input, events: &[ProbeEvent]) -> Reinjected {
    let idents = IdentAllocator::new().block(IdentSpace::Tracenet, prep.targets.len());
    let mut events = events.to_vec();
    events.sort_by_key(|e| e.tick);
    let probes = rebuild(&events, &idents);
    let mut r = Reinjected { probes: events.len() as u64, ..Reinjected::default() };

    let net = ConcurrentNetwork::new(scenario.topology.clone());
    for (e, (tick, packet)) in events.iter().zip(&probes) {
        catch_up(&net, *tick);
        let t0 = Instant::now();
        let bytes = std::hint::black_box(packet).encode();
        let t1 = Instant::now();
        let (verdict, claimed) = net.inject_bytes_ticked(&bytes);
        r.encode_ns += ns(t1 - t0);
        r.inject_ns += ns(t1.elapsed());
        r.tick_mismatches += u64::from(claimed != *tick);
        let responder = match verdict {
            Verdict::Reply(reply) => {
                let wire_reply = reply.encode();
                let t2 = Instant::now();
                let decoded = Packet::decode(std::hint::black_box(&wire_reply));
                r.decode_ns += ns(t2.elapsed());
                r.replies += 1;
                decoded.ok().map(|p| p.header.src)
            }
            Verdict::Silent(_) => None,
        };
        if let Some(from) = e.from {
            r.responder_mismatches += u64::from(responder != Some(from));
        }
    }

    // The walk's event count, on a second fresh network (recording the
    // walk would inflate the timings above).
    let net = ConcurrentNetwork::new(scenario.topology.clone());
    let mut trace = Vec::new();
    for (tick, packet) in &probes {
        catch_up(&net, *tick);
        net.inject_traced(packet, &mut trace);
        r.walk_events += trace.len() as u64;
    }
    r
}

/// The write side of the exchange log: a record pass at the workload's
/// worker count, with the log sink timed.
struct Written {
    emit_ns: u64,
    events: u64,
}

fn write_log(cfg: &Config, (prep, scenario): Input, scratch: &Scratch) -> Written {
    let header = ExchangeHeader {
        version: obs::FORMAT_VERSION,
        vantage: prep.vantage,
        protocol: Protocol::Icmp,
        targets: prep.targets.clone(),
        jobs: cfg.jobs() as u64,
        options: serde_json::Value::Null,
    };
    let path = scratch.file("timed-sink.jsonl");
    let writer = ExchangeWriter::create(&path, &header).expect("create the log file");
    let writer = Arc::new(std::sync::Mutex::new(writer));
    let (emit_ns, events) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let sink = TimedSink {
        inner: ExchangeSink::new(Arc::clone(&writer)),
        ns: Arc::clone(&emit_ns),
        events: Arc::clone(&events),
    };
    let recorder = Recorder::new().with_sink(SinkHandle::new(sink));
    let mut bc = cfg.batch(cfg.jobs());
    bc.use_cache = false;
    run_batch(&fresh(scenario), prep.vantage, &prep.targets, &bc, &recorder);
    writer.lock().expect("writer").flush().expect("flush the log");
    let _ = std::fs::remove_file(&path);
    Written { emit_ns: emit_ns.load(Relaxed), events: events.load(Relaxed) }
}

/// The read side: `ExchangeLog::load` of a log `tracenet record` wrote,
/// then every session replayed through a timed `ReplayProber`.
#[derive(Default)]
struct Read {
    parse_s: f64,
    parse_alloc: u64,
    lines: u64,
    probe_lines: u64,
    probes: u64,
    /// `ReplayProber::for_session` time.
    build_ns: u64,
    /// Time in replay prober calls.
    prober_ns: u64,
    session_ns: u64,
    diverged: u64,
    sessions: u64,
}

fn read_log(cfg: &Config, prep: &Prepared, scratch: &Scratch, out: &mut Outcome) -> Read {
    let path = scratch.file("exchange.jsonl");
    let (scenario, log) = (prep.path.to_string_lossy(), path.to_string_lossy());
    let (jobs, targets) = (cfg.jobs().to_string(), target_list(&prep.targets));
    if let Err(e) =
        cli(&["record", &scenario, "--out", &log, "--jobs", &jobs, "--targets", &targets])
    {
        out.check(false, || format!("record failed: {e}"));
        return Read::default();
    }
    let (allocs0, t0) = (Allocs::now(), Instant::now());
    let parsed = ExchangeLog::load(&path);
    let mut r = Read { parse_s: t0.elapsed().as_secs_f64(), ..Read::default() };
    r.parse_alloc = allocs0.since().bytes;
    let _ = std::fs::remove_file(&path);
    let log = match parsed {
        Ok(log) => log,
        Err(e) => {
            out.check(false, || format!("the recorded log does not load: {e}"));
            return r;
        }
    };
    r.probe_lines = log.events.len() as u64;
    r.lines = 1 + r.probe_lines + log.decisions.len() as u64 + log.reports.len() as u64;

    let opts = cfg.batch(1).opts;
    for (k, &target) in log.header.targets.iter().enumerate() {
        let session = k as u64;
        r.sessions += 1;
        let acc = ProberAcc::default();
        let t0 = Instant::now();
        let Ok(mut replay) = probe::ReplayProber::for_session(&log, session) else {
            r.diverged += 1;
            continue;
        };
        r.build_ns += ns(t0.elapsed());
        let t1 = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            Session::new(TimedProber { inner: &mut replay, acc: &acc }, opts).run(target)
        }));
        r.session_ns += ns(t1.elapsed());
        let recorded = log.report_for(session).and_then(|v| v["probes"].as_u64());
        match report {
            Ok(rep) if replay.remaining() == 0 && recorded == Some(rep.total_probes) => {
                r.probes += rep.total_probes;
            }
            _ => r.diverged += 1,
        }
        r.prober_ns += acc.ns.get();
    }
    r
}

/// The traced run of `cfg.workload`.
pub fn run(cfg: &Config) -> Outcome {
    let scratch = Scratch::new();
    let mut out = Outcome::default();
    // The layers are traced on the run's first scenario; set-up covers
    // all of them, as in the untraced run.
    let set_up = setup(cfg, &scratch);
    let prep = &set_up.preps[0];
    let mut speed = Speed::default();
    let scenario = prep.load();
    let input = (prep, &scenario);
    let jobs = cfg.jobs();

    let mut routing_s = Vec::new();
    let mut routing_alloc = 0;
    let (mut u1, mut u2, mut t1, mut t2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut re, mut wr, mut rd) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while u1.len() < MIN_REPS || start.elapsed().as_secs_f64() < cfg.seconds {
        speed.sample();
        let (allocs0, t0) = (Allocs::now(), Instant::now());
        std::hint::black_box(RoutingTable::compute(&scenario.topology));
        routing_s.push(t0.elapsed().as_secs_f64());
        routing_alloc = allocs0.since().bytes;

        u1.push(untraced(cfg, input, 1, &Recorder::disabled()));
        u2.push(untraced(cfg, input, 2, &Recorder::disabled()));
        t1.push(traced(cfg, input, 1));
        t2.push(traced(cfg, input, 2));

        let sink = VecSink::new();
        let capture =
            untraced(cfg, input, 1, &Recorder::new().with_sink(SinkHandle::new(sink.clone())));
        re.push(reinject(input, &sink.events()));
        wr.push(write_log(cfg, input, &scratch));
        rd.push(read_log(cfg, prep, &scratch, &mut out));

        let base = fingerprint(&u1[0].result.reports);
        out.check(fingerprint(&t1.last().expect("pushed").reports) == base, || {
            "the traced session loop differs from run_batch at one worker".into()
        });
        out.check(fingerprint(&capture.result.reports) == base, || {
            "capturing the probe stream changed the collection".into()
        });
        let r = re.last().expect("pushed");
        out.check(r.probes == capture.result.probes, || {
            format!("captured {} probe events for {} probes", r.probes, capture.result.probes)
        });
        out.check(r.tick_mismatches == 0 && r.responder_mismatches == 0, || {
            format!(
                "re-injection missed {} recorded ticks and {} responders",
                r.tick_mismatches, r.responder_mismatches
            )
        });
        let d = rd.last().expect("pushed");
        out.check(d.diverged == 0, || format!("{} sessions diverged on replay", d.diverged));
    }
    for u in u1.iter().chain(&u2) {
        out.attempted += u.result.reports.len() as u64;
        out.failed += u.result.reports.iter().filter(|r| r.aborted).count() as u64;
    }
    for t in t1.iter().chain(&t2) {
        out.attempted += t.reports.len() as u64;
        out.failed += t.reports.iter().filter(|r| r.aborted).count() as u64;
    }
    for d in &rd {
        out.attempted += d.sessions;
        out.failed += d.diverged;
    }

    out.scales = speed.scales();
    println!("{}", speed.describe());
    let med = |f: &dyn Fn(usize) -> f64, n: usize| median(&(0..n).map(f).collect::<Vec<_>>());
    let n = u1.len();
    let per = |a: u64, b: u64| a as f64 / b.max(1) as f64;

    let stage = |f: fn(&SetupTimes) -> f64| {
        median(&set_up.times.iter().map(f).collect::<Vec<_>>()) * set_up.scales.data
    };
    out.metric("topogen.generate_s", stage(|t| t.generate), "s");
    out.metric("topogen.load_s", stage(|t| t.load), "s");
    out.time("netsim.routing_build_s", median(&routing_s), "s");
    out.metric("netsim.routing_alloc_mb", routing_alloc as f64 / (1 << 20) as f64, "MB");
    out.probe_time("netsim.inject_ns", med(&|i| per(re[i].inject_ns, re[i].probes), n), "ns");
    out.metric("netsim.walk_events_per_probe", per(re[0].walk_events, re[0].probes), "count");
    out.probe_time("wire.encode_ns", med(&|i| per(re[i].encode_ns, re[i].probes), n), "ns");
    out.probe_time("wire.decode_ns", med(&|i| per(re[i].decode_ns, re[i].replies), n), "ns");

    let stack = |t: &Traced| per(t.prober_ns, t.sent);
    let below = |i: usize| {
        let r = &re[i];
        per(r.encode_ns + r.inject_ns + r.decode_ns, r.probes)
    };
    out.probe_time("probe.stack_ns", med(&|i| stack(&t1[i]), n), "ns");
    out.probe_time("probe.self_ns", med(&|i| stack(&t1[i]) - below(i), n), "ns");
    let t = &t1[0];
    out.metric("probe.sent_per_request", per(t.sent, t.requests), "count");
    out.metric("probe.timeout_pct", 100.0 * per(t.timeouts, t.requests), "%");
    let merge_hits: u64 = t.reports.iter().map(|r| r.cache_hits).sum();
    out.metric("probe.merge_hits_per_session", per(merge_hits, t.reports.len() as u64), "count");
    out.metric("probe.stack_ns_2t_over_1t", med(&|i| stack(&t2[i]) / stack(&t1[i]), n), "ratio");

    let core_self = |t: &Traced| {
        let session: u64 = t.session_ns.iter().sum();
        per(session.saturating_sub(t.prober_ns + t.store_ns), t.sent)
    };
    out.probe_time("core.self_ns_per_probe", med(&|i| core_self(&t1[i]), n), "ns");
    let sessions_us: Vec<f64> =
        t1.iter().flat_map(|t| t.session_ns.iter().map(|&x| x as f64 / 1e3)).collect();
    out.probe_time("core.session_us_p50", quantile(&sessions_us, 0.5), "us");
    out.probe_time("core.session_us_p99", quantile(&sessions_us, 0.99), "us");
    let g = grade(&scenario, &t.reports);
    let phase = |f: fn(&tracenet::PhaseCost) -> u64| {
        let probes: u64 = t.reports.iter().flat_map(|r| &r.hops).map(|h| f(&h.cost)).sum();
        per(probes, g.subnets as u64)
    };
    out.metric("core.probes_per_subnet_trace", phase(|c| c.trace), "count");
    out.metric("core.probes_per_subnet_position", phase(|c| c.position), "count");
    out.metric("core.probes_per_subnet_explore", phase(|c| c.explore), "count");

    let walls = |us: &[Untraced]| us.iter().map(|u| u.wall).collect::<Vec<_>>();
    let cpus = |us: &[Untraced]| us.iter().map(|u| u.cpu).collect::<Vec<_>>();
    let at_jobs = if jobs <= 1 { &u1 } else { &u2 };
    out.time("sweep.batch_s", median(&walls(at_jobs)), "s");
    let c = u1[0].result.cache;
    let lookups = c.hits + c.skips + c.misses;
    out.metric("sweep.cache_hit_pct", 100.0 * per(c.hits, lookups), "%");
    out.metric("sweep.cache_skip_pct", 100.0 * per(c.skips, lookups), "%");
    out.metric("sweep.cache_lookups", lookups as f64, "count");
    out.probe_time(
        "sweep.store_ns_per_lookup",
        med(&|i| per(t1[i].lookup_ns, t1[i].lookups), n),
        "ns",
    );
    out.metric("sweep.speedup_2j", median(&walls(&u1)) / median(&walls(&u2)), "ratio");
    out.metric("sweep.cpu_s_2j_over_1j", median(&cpus(&u2)) / median(&cpus(&u1)), "ratio");
    out.metric("sweep.allocs_per_probe", per(u1[0].allocs.count, u1[0].result.probes), "count");

    out.probe_time("obs.emit_ns_per_event", med(&|i| per(wr[i].emit_ns, wr[i].events), n), "ns");
    let d = &rd[0];
    out.metric("obs.lines_per_probe", per(d.lines.saturating_sub(1), d.probe_lines), "count");
    out.time("obs.parse_s", median(&rd.iter().map(|d| d.parse_s).collect::<Vec<_>>()), "s");
    out.time(
        "obs.parse_ns_per_line",
        med(&|i| 1e9 * rd[i].parse_s / rd[i].lines.max(1) as f64, n),
        "ns",
    );
    out.metric("obs.parse_alloc_mb", d.parse_alloc as f64 / (1 << 20) as f64, "MB");
    out.probe_time(
        "replay.prober_ns_per_probe",
        med(&|i| per(rd[i].build_ns + rd[i].prober_ns, rd[i].probes), n),
        "ns",
    );
    out.probe_time(
        "replay.core_self_ns_per_probe",
        med(&|i| per(rd[i].session_ns.saturating_sub(rd[i].prober_ns), rd[i].probes), n),
        "ns",
    );
    let overhead: Vec<f64> = (0..n).map(|i| 100.0 * (t1[i].wall / u1[i].wall - 1.0)).collect();
    out.metric("trace.overhead_pct", median(&overhead), "%");
    out
}
